"""Exact arithmetic in the ring of integers of Q(sqrt(-D)).

The ring is its squarefree D >= 1, checked as RingParams(D) is built: Z[omega]
with omega = (1 + sqrt(-D))/2 when -D = 1 (mod 4), else sqrt(-D), a rule stated
once, in _omega_p, with omega**2 = p*omega + q in _omega_q.  Elements carry
basis coordinates (x, y), meaning x + y*omega, and their norm is read off
them.  Products, square roots and quotients run through half-coordinates
(u, v) with alpha = (u + v*sqrt(-D))/2, which gives a single multiplication
kernel for both omega conventions.  Every magnitude comparison is on exact
integer norms (no floating point anywhere in this module).

Integrality rule (Cohen, A Course in Computational Algebraic Number Theory,
sec. 5.1): (u + v*sqrt(-D))/2 with integers u, v lies in O_K exactly when its
norm (u**2 + D*v**2)/4 is an integer.  The integer kernels use this rule alone;
the omega convention matters only for basis coordinates.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import isqrt
from operator import itemgetter

__all__ = [
    "ParityError",
    "RingParams",
    "QuadInt",
    "make_ring",
    "is_squarefree",
    "norm",
    "parse_elem",
    "format_elem",
    "elem_key",
    "elem_to_json",
    "elem_from_json",
    "ElementRows",
]


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


def _omega_p(D: int) -> int:
    return 1 if D % 4 == 3 else 0  # x + y*omega = (2x + p*y + (2 - p)*y*sqrt(-D))/2, the one omega rule


def _omega_q(D: int, p: int) -> int:
    return -(D + 1) // 4 if p else -D  # omega**2 = p*omega + q for p = _omega_p(D); q = -norm(omega)


@dataclass(frozen=True, slots=True)
class RingParams:
    """O_K for K = Q(sqrt(-D)), given by its squarefree D >= 1 alone; D is checked on construction."""

    D: int
    omega_p: int = field(init=False, repr=False, compare=False)  # _omega_p(D)

    def __post_init__(self) -> None:
        if not is_squarefree(self.D):
            raise ValueError(f"D must be {'squarefree' if self.D >= 1 else 'a positive integer'}, got {self.D}")
        object.__setattr__(self, "omega_p", _omega_p(self.D))

    def __repr__(self) -> str:
        return f"RingParams(D={self.D}, omega={'half' if self.omega_p else 'sqrt'})"


make_ring = RingParams  # the public constructor, as the CLI and the benchmark call it


@dataclass(frozen=True, slots=True, init=False)
class QuadInt:
    """Element x + y*omega of O_K, with exact integer coordinates."""

    ring: RingParams
    x: int
    y: int

    def __init__(self, ring: RingParams, x: int, y: int) -> None:
        # Every layer builds this type, so the slots are set through their member descriptors
        # (bound below the class): the generated frozen __init__ goes through object.__setattr__
        # per field and costs about 1.7 times as much.  Only construction bypasses the frozen
        # __setattr__: assigning a field afterwards still raises FrozenInstanceError.
        _set_ring(self, ring)
        _set_x(self, x)
        _set_y(self, y)

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
        if self.ring.omega_p:
            return 2 * self.x + self.y, self.y
        return 2 * self.x, 2 * self.y

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
        u, v = self.half_coords()
        return _from_half_unchecked(self.ring, u, -v)

    def norm(self) -> int:
        x, y, ring = self.x, self.y, self.ring  # x**2 + p*x*y - q*y**2 for omega**2 = p*omega + q
        p = ring.omega_p
        return x * (x + p * y) - _omega_q(ring.D, p) * y * y

    def __str__(self) -> str:
        return format_elem(self)


_set_ring, _set_x, _set_y = QuadInt.ring.__set__, QuadInt.x.__set__, QuadInt.y.__set__


def _mul_half(D: int, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """Half-coordinates of the product of two elements given by half-coordinates.

    (u1 + v1*s)(u2 + v2*s)/4 with s**2 = -D is (U + V*s)/2 for the U, V below;
    both halvings are exact for elements of O_K.
    """
    (u1, v1), (u2, v2) = p, q
    return (u1 * u2 - D * v1 * v2) // 2, (u1 * v2 + v1 * u2) // 2


def _from_half_unchecked(ring: RingParams, u: int, v: int) -> QuadInt:
    if ring.omega_p:
        return QuadInt(ring, (u - v) // 2, v)
    return QuadInt(ring, u // 2, v // 2)


def from_half(ring: RingParams, u: int, v: int) -> QuadInt:
    """Build (u + v*sqrt(-D))/2, rejecting coordinates outside O_K."""
    if (u * u + ring.D * v * v) % 4:
        raise ParityError(f"({u}+{v}*sqrt(-{ring.D}))/2 is not in O_K (its norm is not an integer)")
    return _from_half_unchecked(ring, u, v)


def norm(a: QuadInt) -> int:
    return a.norm()


def elem_key(a: QuadInt) -> tuple[int, int, int]:
    """Canonical sort key (norm, x, y)."""
    return (a.norm(), a.x, a.y)


def _sqrt_half(D: int, U: int, V: int) -> tuple[int, int] | None:
    """Canonical square root of alpha = (U + V*sqrt(-D))/2 in O_K, on integers.

    Returns the half-coordinates (u, v) of the root beta = (u + v*sqrt(-D))/2
    with u > 0, or u = 0 and v >= 0; None if alpha is not a square.  (U, V)
    must be the half-coordinates of an element of O_K, and beta**2 has
    half-coordinates ((u**2 - D*v**2)/2, u*v).

    A rational alpha (V = 0) forces u*v = 0.  With v = 0 the root is (u, 0)
    where u**2 = 2*U, so U >= 0; with u = 0 it is (0, v) where D*v**2 = -2*U,
    so U < 0 and D divides -2*U.  There is no other root, and both are
    canonical.  U is even (U**2 = 0 mod 4), so u**2 + D*v**2 = 2*|U| = 0
    (mod 4) and the root lies in O_K by the integrality rule.

    Otherwise the candidate is reconstructed from the norm: 4*norm(alpha) =
    U**2 + D*V**2 must be a perfect square r**2 (so r = 2*norm(beta)), then
    u**2 = U + r and u*v = V, where r > |U| as V != 0, so u > 0.  Once u**2 =
    U + r holds, the rest is proved, not tested.  u divides V: u**2*(r - U)
    = r**2 - U**2 = D*V**2, and D is squarefree, so each prime's exponent in
    u is at most its exponent in V.  The square is alpha: u*v = V, and
    u**2*(u**2 - D*v**2) = (U + r)**2 - D*V**2 = 2*U*(U + r) = 2*U*u**2, so
    u**2 - D*v**2 = 2*U.  r is even and u**2 + D*v**2 = 2*r = 0 (mod 4): the
    root lies in O_K by the integrality rule, with no parity test.
    """
    if V == 0:
        if U >= 0:
            u = isqrt(2 * U)
            return (u, 0) if u * u == 2 * U else None
        vsq, rem = divmod(-2 * U, D)
        v = isqrt(vsq)
        return (0, v) if rem == 0 and v * v == vsq else None
    n4 = U * U + D * V * V
    r = isqrt(n4)
    if r * r != n4:
        return None
    usq = U + r  # > 0 since |U| < r
    u = isqrt(usq)
    return (u, V // u) if u * u == usq else None


def _div_half(D: int, U1: int, V1: int, U2: int, V2: int) -> tuple[int, int] | None:
    """Half-coordinates of (U1 + V1*sqrt(-D)) / (U2 + V2*sqrt(-D)) in O_K, on integers.

    Returns the (u, v) of the quotient, or None if it does not lie in O_K.
    Multiplying by the conjugate gives (p + q*sqrt(-D)) / (U2**2 + D*V2**2),
    and U2**2 + D*V2**2 = 4*norm(den), so u = p / (2*norm(den)) and likewise
    v.  (U2, V2) must be the nonzero half-coordinates of an element of O_K.
    tuples.extend_scan is its one caller, and it needs the parity test: in
    Z[i], 1/(1+i) passes both divisions with u = 1, v = -1, of norm 1/2.
    search.build_graph has its own copy inlined in its hot loop, where a call
    per quotient costs more than the division, and without the parity test:
    it divides only where norm(den) divides norm(num), and then an exact
    quotient has an integer norm, so it lies in O_K.
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


def _ext_gcd(p: int, q: int) -> tuple[int, int, int]:
    """(g, s, t) with s*p + t*q = g = gcd(p, q) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while q:
        k = p // q
        p, q = q, p - k * q
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return (p, s0, t0) if p >= 0 else (-p, -s0, -t0)


def _ideal_hnf(c: QuadInt) -> tuple[int, int, int]:
    """(n1, t, n2) with c*O_K = Z*(n1, 0) + Z*(t, n2) in basis coordinates and 0 <= t < n1.

    The Hermite normal form of the lattice spanned by c and c*omega, for a
    nonzero c.  n1*n2 = norm(c), so the (x, y) with 0 <= x < n1 and
    0 <= y < n2 are one representative of each class of O_K/(c).
    """
    cw = c * QuadInt(c.ring, 0, 1)
    n2, s, t = _ext_gcd(c.y, cw.y)
    n1 = abs(c.x * cw.y - cw.x * c.y) // n2
    return n1, (s * c.x + t * cw.x) % n1, n2


def _sqrt_mod(n: QuadInt, hnf: tuple[int, int, int]) -> list[tuple[int, int]]:
    """The representatives (x, y) of O_K/(c) with (x + y*omega)^2 = n (mod c), c*O_K given by _ideal_hnf.

    One pass over the norm(c) representatives on integers: z^2 - n lies in
    c*O_K when its omega coordinate is a multiple k of n2 and its rational
    coordinate minus k*t a multiple of n1.
    """
    p = n.ring.omega_p
    q = _omega_q(n.ring.D, p)  # omega^2 = p*omega + q
    n1, t, n2 = hnf
    roots = []
    for y in range(n2):
        wy0, wx0 = p * y * y - n.y, q * y * y - n.x  # z^2 - n = (x^2 + wx0) + (2xy + wy0)*omega
        for x in range(n1):
            wy = 2 * x * y + wy0
            if wy % n2 == 0 and (x * x + wx0 - wy // n2 * t) % n1 == 0:
                roots.append((x, y))
    return roots


def _class_rows(D: int, max_norm: int, hnf: tuple[int, int, int] = (1, 0, 1), z0: tuple[int, int] = (0, 0)):
    """Rows (v, range of u) of the z = z0 (mod c) with norm(z) <= max_norm, u > 0 or u = 0 and v > 0.

    Half-coordinates, z = (u + v*sqrt(-D))/2.  c*O_K is given by _ideal_hnf
    and z0 by basis coordinates (x0, y0): z = x + y*omega lies in the class
    when y = y0 (mod n2) and then x = x0 + t*(y - y0)/n2 (mod n1).  The rows
    run over y in ascending order, each bounding u by an integer square root.
    The default class is O_K itself, so the rows then hold one z of each pair
    {z, -z} of the ball, the one in the half-plane of _sqrt_half's roots.
    """
    n1, t, n2 = hnf
    x0, y0 = z0
    p = _omega_p(D)
    four_n = 4 * max_norm
    ymax = isqrt(four_n // D) // (2 - p)  # D*v^2 <= 4*max_norm
    y = (y0 + ymax) % n2 - ymax  # the least y >= -ymax in the class
    xr = (x0 + (y - y0) // n2 * t) % n1
    while y <= ymax:
        v, py = (2 - p) * y, p * y
        xlo = -((py - (v <= 0)) // 2)  # u >= 1, or u >= 0 when v > 0
        xhi = (isqrt(four_n - D * v * v) - py) // 2
        yield v, range(2 * (xlo + (xr - xlo) % n1) + py, 2 * xhi + py + 1, 2 * n1)
        y += n2
        xr = (xr + t) % n1


def _half_ball_size(D: int, max_norm: int) -> int:
    """The number of pairs {z, -z} of nonzero elements of norm <= max_norm, counted from _class_rows."""
    return sum(len(us) for _, us in _class_rows(D, max_norm))


class ElementRows(Sequence):
    """Every nonzero element of norm <= max_norm, sorted by elem_key (norm, x, y), held as half rows.

    The only constructor builds the whole ball, so a value of this type is
    whole and sorted by construction.  half holds one row (norm, x, y, u, v)
    per pair {a, -a}: the sort key of the member with (x, y) > (0, 0) and its
    half-coordinates (u, v), formed on integers from the rows of _class_rows
    and sorted by (norm, x, y) once.  ends[m] is the end of the half rows of
    norm m, and lo = bisect_left(half, (m,)) their start.

    The whole ball is implied.  Negation reverses the (x, y) order, so the
    slice of norm m in the sorted ball holds its half rows negated and
    reversed, followed by its half rows: it is 2*lo .. 2*hi - 1 for
    hi = ends[m], half row h is element h + hi, and element i is the
    negation of element last - i, last = 2*(lo + hi) - 1.  len, indexing and
    iteration give that sequence; a QuadInt is built only when it is indexed
    or iterated.
    """

    __slots__ = ("ring", "max_norm", "half", "ends")

    def __init__(self, ring: RingParams, max_norm: int):
        if max_norm < 1:
            raise ValueError("max_norm must be >= 1")
        D, p = ring.D, ring.omega_p
        half = []
        for v, us in _class_rows(D, max_norm):
            dvv = D * v * v
            if p:
                # x = (u - v)/2 and y = v: the u < v of a row have x < 0, so their negations are kept
                k = max(0, (v - us.start) >> 1)  # the number of u < v, as u = v (mod 2)
                half += [((u * u + dvv) >> 2, (v - u) >> 1, -v, -u, -v) for u in us[:k]]
                half += [((u * u + dvv) >> 2, (u - v) >> 1, v, u, v) for u in us[k:]]
            else:
                y = v >> 1  # x = u/2 and y = v/2, and _class_rows keeps u > 0, or u = 0 and v > 0
                half += [((u * u + dvv) >> 2, u >> 1, y, u, v) for u in us]
        half.sort()
        self.ring = ring
        self.max_norm = max_norm
        self.half = half
        self.ends = dict(zip(map(itemgetter(0), half), range(1, len(half) + 1)))

    def __len__(self) -> int:
        return 2 * len(self.half)

    def __getitem__(self, i: int) -> QuadInt:
        half = self.half
        if i < 0:
            i += 2 * len(half)
        if not 0 <= i < 2 * len(half):
            raise IndexError("ElementRows index out of range")
        m = half[i >> 1][0]  # i is in the slice 2*lo .. 2*hi - 1 of norm m, so i >> 1 is in lo .. hi - 1
        lo, hi = bisect_left(half, (m,)), self.ends[m]
        if i >= lo + hi:
            _, x, y, _, _ = half[i - hi]
            return QuadInt(self.ring, x, y)
        _, x, y, _, _ = half[2 * lo + hi - 1 - i]  # the half row of element last - i
        return QuadInt(self.ring, -x, -y)

    def __repr__(self) -> str:
        return f"ElementRows({self.ring!r}, max_norm={self.max_norm})"
