"""Approximation constants, magnitude bounds and the exact inequality-chain verifier.

Magnitudes |alpha| = sqrt(norm(alpha)) are irrational, so three regimes are
kept strictly apart:

* hypothesis checks are cross-multiplied into exact integer comparisons
  (e.g. |b| >= (3/2)|a|  <=>  4*norm(b) >= 9*norm(a)), and gap_lemma_checks
  decides the four clauses of the Jadrijevic-Ziegler
  simultaneous-approximation lemma on integers as well;
* chain_verify works purely on big integers and exact fractions, with the
  recurring factor 330/65 stored reduced as 66/13;
* the displayed values of the constants L, l, p, P, lambda, c1
  (jz_constants) and of the theta defects (theta_defect) are PrecReal
  enclosures: mpmath's intervals (mpmath.libmp), each operation given the
  requested precision explicitly, with directed rounding done by mpmath;
  square roots take their integer roots from math.isqrt and round outward
  exactly as mpmath does, and no global precision is read or set.  No
  verdict is read off them.

Every exact comparison, of a hypothesis clause or a chain step, is one
Comparison record whose verdict is computed from its operands.  The margin
of a gap-lemma clause, |X - Y| / max(|X|, |Y|), is the correctly rounded
quotient.  When the bit lengths of X and Y differ by 55 or more, as the gap
hypotheses make them for l, p and L, it is 1.0 without a division: the
smaller over the larger is then below 2^-54, and 1 -+ r with r < 2^-54
rounds to exactly 1.0 (the proof is at _margin).  The exact small integers
the interval kernels use are the module constants _IV_1, _IV_2, ..., built
once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath import iv
from mpmath.libmp import (
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpf_div,
    mpf_le,
    mpf_neg,
    mpf_pos,
    mpf_shift,
    mpf_sign,
    mpf_sub,
    mpi_add,
    mpi_div,
    mpi_log,
    mpi_mid,
    mpi_mul,
    mpi_pow,
    mpi_sub,
    round_ceiling,
    round_floor,
    to_float,
)

from .quad_ring import QuadInt, _one_ring, norm
from .tuples import PellWitness

__all__ = [
    "PrecReal",
    "JZConstants",
    "HypothesisFailure",
    "Comparison",
    "HypothesisReport",
    "ThetaCheck",
    "ChainTrace",
    "jz_constants",
    "gap_lemma_checks",
    "check_gap_hypotheses",
    "upper_bound_d",
    "lower_bound_d",
    "theta_defect",
    "chain_verify",
    "threshold_a22",
    "DEFAULT_PRECISION_BITS",
]

DEFAULT_PRECISION_BITS = 128


class HypothesisFailure(ValueError):
    """A lemma hypothesis (e.g. L > 1 or |T| > M) does not hold."""


def _iv_int(n: int, prec: int) -> tuple:
    """The integer n as an interval of prec-bit endpoints, converted as mpmath.iv converts it."""
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


# The exact intervals [k, k] of the small integers the kernels use, built once: from_int(k) is exact
# and normalised, so each equals _iv_int(k, prec) at every precision prec >= 64.
_IV_0, _IV_1, _IV_2, _IV_3, _IV_4, _IV_16, _IV_21, _IV_27, _IV_64 = (
    (from_int(k), from_int(k)) for k in (0, 1, 2, 3, 4, 16, 21, 27, 64)
)


def _iv_sqrt(x: tuple, prec: int) -> tuple:
    """mpi_sqrt(x, prec) of an interval x >= 0, its integer square roots taken by math.isqrt.

    An endpoint m*2^e, made e even by doubling m when e is odd, is sqrt(K)*2^((e - s)/2)
    with K = m*2^s and s >= 0 even, so large that K >= 2^(2*prec - 2).  Then
    r = isqrt(K) >= 2^(prec - 1), and every prec-bit float at or above 2^(prec - 1)
    is an integer, so rounding sqrt(K) down to prec bits is rounding r down, and
    rounding it up is rounding up r, or r + 1 when r*r < K.  A power of two scales
    out of the rounding, and a directed, correctly rounded square root is unique,
    so each endpoint equals mpmath's mpf_sqrt in the same direction.  A zero
    endpoint gives 0.
    """
    out = []
    for (sign, man, exp, bc), rnd in zip(x, (round_floor, round_ceiling)):
        if sign:
            raise ValueError("square root of a negative endpoint")
        if not man:
            out.append(fzero)
            continue
        if exp & 1:
            man, exp, bc = man << 1, exp - 1, bc + 1
        s = max(0, 2 * prec - bc)
        s += s & 1
        K = man << s
        r = isqrt(K)
        if rnd == round_ceiling and r * r < K:
            r += 1
        out.append(from_man_exp(r, (exp - s) // 2, prec, rnd))
    return tuple(out)


@dataclass(frozen=True)
class PrecReal:
    """A rigorous enclosure (an mpmath.iv interval) evaluated at a working precision.

    The caller must compute the enclosure at precision_bits, passing it to every
    interval operation, as jz_constants and theta_defect do; the label is not
    checked against the interval's width.  value and max_rel_error read no
    global precision either.
    """

    enclosure: iv.mpf
    precision_bits: int

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")

    @property
    def value(self) -> mpmath.mpf:
        """Midpoint of the enclosure: the endpoints' sum rounded to nearest at precision_bits, halved."""
        return mpmath.mp.make_mpf(mpi_mid(self.enclosure._mpi_, self.precision_bits))

    @property
    def max_rel_error(self) -> float:
        """Bound on |x - value| / |x| over the enclosure: 0.0 for a point, inf across 0.

        Half the width over the endpoint nearest 0, at 53 bits, rounded up.
        """
        a, b = self.enclosure._mpi_
        if a == b:
            return 0.0
        if mpf_sign(a) <= 0 <= mpf_sign(b):
            return float("inf")
        near = a if mpf_sign(a) > 0 else mpf_neg(b)  # |endpoint nearest 0|
        half = mpf_shift(mpf_sub(b, a, 53, round_ceiling), -1)
        return to_float(mpf_div(half, mpf_pos(near, 53, round_floor), 53, round_ceiling))

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return mpmath.nstr(self.value, 20)


@dataclass(frozen=True)
class JZConstants:
    """The constant set of the simultaneous-approximation lower bound.

    For theta_i = sqrt(1 + a_i/T), any algebraic-integer approximation
    p_i/q obeys max_i |theta_i - p_i/q| > c1 * |q|^(-lambda) once L > 1.
    M is kept as the exact squared magnitude max(norm(a1), norm(a2)).
    """

    a1: QuadInt
    a2: QuadInt
    T: QuadInt
    M_sq: int
    L: PrecReal
    l: PrecReal
    p: PrecReal
    P: PrecReal
    lam: PrecReal
    c1: PrecReal
    precision_bits: int


# A bit-length gap at which _margin is 1.0 without a division (see its proof).
_MARGIN_GAP_BITS = 55


def _margin(x: int, y: int) -> float:
    """Relative gap |x - y| / max(|x|, |y|) of the exact comparison x vs y, correctly rounded; 0.0 on a tie.

    When the bit lengths (bl) of x and y differ by at least 55, the result is
    1.0 and no division is done.  Proof: let g and s be the larger and the
    smaller of |x|, |y|, so bl(g) >= bl(s) + 55.  As s < 2^bl(s) and
    g >= 2^(bl(g) - 1), r = s/g < 2^-54, and |x - y| is g - s or g + s, so the
    exact quotient is 1 - r or 1 + r.  The doubles next to 1 are 1 - 2^-53 and
    1 + 2^-52, so every real strictly between 1 - 2^-54 and 1 + 2^-53 rounds
    to nearest to exactly 1.0, and both quotients lie there.  Python's int
    true division is correctly rounded, so it returns the same 1.0.  Otherwise
    the quotient is that division; both operands 0 give 0.0.
    """
    gap = x.bit_length() - y.bit_length()
    if gap >= _MARGIN_GAP_BITS or gap <= -_MARGIN_GAP_BITS:
        return 1.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def _pair_norms(a1: QuadInt, a2: QuadInt) -> tuple[int, int, int]:
    """(norm(a1), norm(a2), norm(a1 - a2)) of a1, a2 in one ring (_one_ring), once a1 != a2 and both are nonzero.

    Raises ValueError otherwise, in that order.  The checks and norms are
    unchanged by (a1, a2) -> (-a1, -a2).
    """
    if a1 == a2:
        raise ValueError("a1 and a2 must be distinct")
    if a1.is_zero() or a2.is_zero():
        raise ValueError("a1 and a2 must be nonzero")
    (u1, v1), (u2, v2), D = a1.half_coords(), a2.half_coords(), a1.ring.D
    u, v = u1 - u2, v1 - v2  # a1 - a2
    return (u1 * u1 + D * v1 * v1) >> 2, (u2 * u2 + D * v2 * v2) >> 2, (u * u + D * v * v) >> 2


def _lemma_norms(n1: int, n2: int, n12: int, nT: int) -> tuple[int, int, int, float]:
    """(M^2, N, min, margin of L > 1) of the lemma from the norms of a1, a2, a1 - a2 and T.

    Checks |T| > M and L > 1 by their integer forms; raises HypothesisFailure
    when |T| <= M or L <= 1.
    """
    M_sq = max(n1, n2)
    if nT <= M_sq:
        raise HypothesisFailure("|T| <= M = max(|a1|, |a2|)")
    N = n1 * n2 * n12
    A = 27 * (nT + M_sq) - 16 * N
    A_sq, bound = A * A, 2916 * nT * M_sq
    if A <= 0 or A_sq <= bound:
        raise HypothesisFailure("L <= 1: approximation lemma does not apply")
    return M_sq, N, min(n1, n2, n12), _margin(A_sq, bound)


def jz_constants(
    a1: QuadInt,
    a2: QuadInt,
    T: QuadInt,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> JZConstants:
    """Evaluate M, L, l, p, P, lambda, c1 as enclosures at precision_bits, once L > 1 is certain.

    Exact preconditions: a1 != a2, both nonzero, and |T| > M (checked on norms).
    Raises HypothesisFailure when |T| <= M or L <= 1, both decided on integers,
    and ValueError when precision_bits < 64.  Before any of that, an a2 or T
    outside the ring of a1 raises the ValueError of a product.
    """
    _one_ring(a1.ring, a2, T)
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    nT = norm(T)
    M_sq, N, min_sq, _ = _lemma_norms(*_pair_norms(a1, a2), nT)
    prec = precision_bits
    rT = _iv_sqrt(_iv_int(nT, prec), prec)
    rM = _iv_sqrt(_iv_int(M_sq, prec), prec)
    gap = mpi_sub(rT, rM, prec)  # |T| - M > 0, decided exactly by _lemma_norms
    N16 = _iv_int(16 * N, prec)
    # L = gap * gap * 27 / (16 * N)
    L = mpi_div(mpi_mul(mpi_mul(gap, gap, prec), _IV_27, prec), N16, prec)
    # l = rT * 27 / (64 * gap)
    l = mpi_div(mpi_mul(rT, _IV_27, prec), mpi_mul(_IV_64, gap, prec), prec)
    # num = 2 * rT + 3 * rM
    num = mpi_add(mpi_mul(_IV_2, rT, prec), mpi_mul(_IV_3, rM, prec), prec)
    # p = sqrt(num / (2 * gap))
    p = _iv_sqrt(mpi_div(num, mpi_mul(_IV_2, gap, prec), prec), prec)
    # P = 16 * N * num / (min * sqrt(min))
    min_iv = _iv_int(min_sq, prec)
    P = mpi_div(mpi_mul(N16, num, prec), mpi_mul(min_iv, _iv_sqrt(min_iv, prec), prec), prec)
    # lam = 1 + log(P) / log(L)
    lam = mpi_add(_IV_1, mpi_div(mpi_log(P, prec), mpi_log(L, prec), prec), prec)
    # max(1, 2l), taken on the endpoints: the hull [1, 2l.b] when 2l straddles 1
    base = tuple(fone if mpf_le(e, fone) else e for e in mpi_mul(_IV_2, l, prec))
    # c1 = 1 / (4 * p * P * base ** (lam - 1))
    power = mpi_pow(base, mpi_sub(lam, _IV_1, prec), prec)
    den = mpi_mul(mpi_mul(mpi_mul(_IV_4, p, prec), P, prec), power, prec)
    c1 = mpi_div(_IV_1, den, prec)
    consts = (PrecReal(iv.make_mpf(x), prec) for x in (L, l, p, P, lam, c1))
    return JZConstants(a1, a2, T, M_sq, *consts, precision_bits)


_RELATIONS = {">": operator.gt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Comparison:
    """The exact comparison lhs <relation> rhs of integers or fractions; holds follows from the operands."""

    name: str
    relation: str  # ">", ">=" or "=="
    lhs: int | Fraction
    rhs: int | Fraction

    @property
    def holds(self) -> bool:
        return _RELATIONS[self.relation](self.lhs, self.rhs)

    @property
    def margin(self) -> int | Fraction:
        return self.lhs - self.rhs

    def to_json(self) -> dict:
        return {
            "description": self.name,
            "relation": self.relation,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
            "margin": str(self.margin),
        }


@dataclass(frozen=True)
class HypothesisReport:
    clauses: tuple[Comparison, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.clauses)

    def failing(self) -> list[str]:
        return [c.name for c in self.clauses if not c.holds]


def check_gap_hypotheses(a: QuadInt, b: QuadInt, c: QuadInt) -> HypothesisReport:
    """Exact per-clause report for the gap-lemma hypotheses on (a, b, c).

    Each magnitude inequality is squared and cross-multiplied so the check
    runs entirely on integer norms.  A mixed-ring input first raises the
    ValueError that a*b, then (ab)*c, would raise.
    """
    _one_ring(a.ring, b, c)
    na, nb, nc = norm(a), norm(b), norm(c)
    clauses = (
        Comparison("|b| >= (3/2)|a|", ">=", 4 * nb, 9 * na),
        Comparison("|b| >= 22", ">=", nb, 484),
        Comparison("|a| >= 2", ">=", na, 4),
        Comparison("|c| > |b|^16", ">", nc, nb**16),
    )
    return HypothesisReport(clauses)


def _zsqrt_pow(a: int, b: int, m: int, k: int) -> tuple[int, int]:
    """(a + b*sqrt(m))^k as the coefficient pair (x, y) of x + y*sqrt(m), by squaring.

    Left to right over the bits of k: x^5 = (x^2)^2 * x and x^8 = ((x^2)^2)^2.
    """
    x, y = 1, 0
    for bit in bin(k)[2:]:
        x, y = x * x + y * y * m, 2 * x * y
        if bit == "1":
            x, y = x * a + y * b * m, x * b + y * a
    return x, y


# The bit-length slacks of conditions (a) and (b) of gap_lemma_checks' lambda certificate.
_CERT_GAP_BITS = 68
_CERT_SCALE_BITS = 63


def gap_lemma_checks(a: QuadInt, b: QuadInt, c: QuadInt) -> dict[str, tuple[bool, float, int]]:
    """Constant-level consequences of the gap-lemma hypotheses on (a, b, c), decided exactly.

    Instantiates the lemma at (a1, a2, T) = (-b, -a, abc).  With
    n1 = norm(a1), n2 = norm(a2), n12 = norm(a1 - a2), N = n1*n2*n12,
    M^2 = max(n1, n2), min = min(n1, n2, n12) and m = norm(T)*M^2:
      l < 1/2            <=>  1024*M^2 < 25*norm(T),
      p <= sqrt(47/42)   <=>  484*M^2 <= norm(T),
      L > 1              <=>  A > 0 and A^2 > 2916*m, A = 27*(norm(T) + M^2) - 16*N,
      lambda < 1.8       <=>  16^18 N^18 (4 norm(T) + 9 M^2 + 12 sqrt(m))^5
                                < 27^8 min^15 (norm(T) + M^2 - 2 sqrt(m))^8,
    the last the sign of an element u + v*sqrt(m) of Z[sqrt(m)], decided as
    u|u| < -v|v|m.  L <= 1 raises HypothesisFailure, as in jz_constants.

    Each clause maps to (holds, margin, bits): margin is |X - Y| / max(|X|, |Y|)
    of the integer comparison X vs Y that decided it (0.0 on an exact tie; for
    lambda, X = u|u| and Y = -v|v|m with u + v*sqrt(m) the difference of the two
    sides), and bits is 0: the verdict is exact and used no working precision.

    Runs on integers: norm(T) = norm(a)*norm(b)*norm(c) by multiplicativity, so
    abc is never formed; the norms and checks of (a1, a2) are taken at (b, a),
    as they do not change under negation.  A mixed-ring input raises the
    ValueError that a*b, then (ab)*c, would raise.

    lambda is first tried by a certificate on bit lengths (bl) alone:
      (a) bl(norm(T)) >= bl(M^2) + 68, and
      (b) 15*bl(min) + 3*bl(norm(T)) >= 18*bl(N) + 63.
    When both hold, u < 0 and v^2 m < 2^-55 u^2, so u|u| < -v|v|m and the
    exact margin (u^2 - v^2 m) / u^2 = 1 - v^2 m / u^2 rounds to exactly 1.0
    (the doubles next to 1 are 1 - 2^-53 and 1 + 2^-52): the clause is
    (True, 1.0, 0), what the exact comparison returns for such u and v, and
    no power is formed.  Proof: write t = |T|, rho = M/t,
    lhs = 16^18 N^18 and rhs = 27^8 min^15.  As 4 norm(T) + 9 M^2 + 12 sqrt(m)
    = (2t + 3M)^2 and norm(T) + M^2 - 2 sqrt(m) = (t - M)^2,
      u + v sqrt(m) = lhs (2t + 3M)^10 - rhs (t - M)^16,
    and its conjugate (sqrt(m) -> -sqrt(m)) is lhs (2t - 3M)^10 - rhs (t + M)^16.
    So 2u = lhs S1 - rhs S2 and 2v sqrt(m) = lhs D1 + rhs D2, where S1, D1 =
    (2t + 3M)^10 +- (2t - 3M)^10 and S2, D2 = (t + M)^16 +- (t - M)^16.  By
    convexity S1 >= 2 (2t)^10 and S2 >= 2 t^16, and S1 <= 2 (2t + 3M)^10 =
    2^11 t^10 (1 + 1.5 rho)^10; by the mean value theorem D1 <= 60 M (2t + 3M)^9
    and D2 <= 32 M (t + M)^15, so D1 <= 15 rho (1 + 1.5 rho)^9 S1 and
    D2 <= 16 rho (1 + rho)^15 S2.  By (a), rho^2 = M^2 / norm(T) <
    2^(bl(M^2) + 1 - bl(norm(T))) <= 2^-67, so (1 + 1.5 rho)^10 and
    (1 + rho)^15 are below 1.02.  By (b), with 27^8 = 3^24 > 1.02 * 2^38,
    min >= 2^(bl(min) - 1), norm(T) >= 2^(bl(norm(T)) - 1) and N < 2^bl(N),
      rhs t^6 = 3^24 min^15 norm(T)^3 > 1.02 * 2^(38 - 18 + 18 bl(N) + 63)
              > 1.02 * 2^83 N^18 = 1.02 * 2^11 lhs,
    hence rhs S2 >= 2 rhs t^16 > 1.02 * 2^12 lhs t^10 > 2 lhs S1.  Then
    2u < -rhs S2 / 2 < 0, and 2v sqrt(m) < 1.02 rho (7.5 + 16) rhs S2 <
    24 rho rhs S2, so |v sqrt(m)| / |u| < 48 rho and v^2 m / u^2 < 2304 rho^2
    < 2^12 * 2^-67 = 2^-55.

    When the certificate fails, the fifth and eighth powers in Z[sqrt(m)]
    are taken by squaring and X < Y is decided on the full integers.
    """
    _one_ring(a.ring, b, c)
    nb, na, nab = _pair_norms(b, a)  # as at (a1, a2) = (-b, -a)
    nT = na * nb * norm(c)
    M_sq, N, min_sq, L_margin = _lemma_norms(nb, na, nab, nT)
    bl_T = nT.bit_length()
    if (
        bl_T >= M_sq.bit_length() + _CERT_GAP_BITS
        and 15 * min_sq.bit_length() + 3 * bl_T >= 18 * N.bit_length() + _CERT_SCALE_BITS
    ):
        lam_holds, lam_margin = True, 1.0
    else:
        m = nT * M_sq
        # P^5 < L^4, squared: 16^18 N^18 (2|T| + 3M)^10 < 27^8 min^15 (|T| - M)^16
        x1, y1 = _zsqrt_pow(4 * nT + 9 * M_sq, 12, m, 5)
        x2, y2 = _zsqrt_pow(nT + M_sq, -2, m, 8)
        lhs, rhs = 16**18 * N**18, 27**8 * min_sq**15
        u, v = lhs * x1 - rhs * x2, lhs * y1 - rhs * y2
        # u + v*sqrt(m) < 0 <=> u|u| < -v|v|m, as t -> t|t| is increasing
        X, Y = u * abs(u), -v * abs(v) * m
        lam_holds, lam_margin = X < Y, _margin(X, Y)
    return {
        "l < 1/2": (1024 * M_sq < 25 * nT, _margin(1024 * M_sq, 25 * nT), 0),
        "p <= sqrt(47/42)": (484 * M_sq <= nT, _margin(484 * M_sq, nT), 0),
        "L > 1": (True, L_margin, 0),
        "lambda < 1.8": (lam_holds, lam_margin, 0),
    }


def upper_bound_d(c: QuadInt) -> int:
    """Exact squared form of the upper bound 3956^10 |c|^24 on |d|: 3956^20 * norm(c)^24."""
    return 3956**20 * norm(c) ** 24


def lower_bound_d(a: QuadInt, b: QuadInt) -> Fraction:
    """Exact squared form of the lower bound |ab| * 13/66 on |d|: norm(a) norm(b) 169/4356.

    a and b in two rings raise the ValueError that a*b would raise.
    """
    _one_ring(a.ring, b)
    return Fraction(norm(a) * norm(b) * 169, 4356)


@dataclass(frozen=True)
class ThetaCheck:
    """Evaluation of both theta defects of a witness against the lemma bounds.

    defect_i = |theta_i - approximant_i| with theta_1 = (s/a)sqrt(a/c),
    theta_2 = (t/b)sqrt(b/c), approximants s*x/(a*z) and t*y/(b*z), and the
    sign of each theta chosen to minimize its defect.  middle2 is the a<->b
    symmetric image of middle1, |t||b-c|/(|b|sqrt|bc|)/|z|^2.

    identity_rel_diff is the exact check of the identity
    |theta1^2 - (sx/az)^2| = |s^2/a^2| * |c-a| / (|c| |z|^2), which holds
    iff norm(s)*norm(a*z^2 - c*x^2) = norm(s)*norm(c - a): the relative gap of
    those two integers, 0.0 for a genuine witness.  The PrecReal fields are
    rigorous enclosures.
    """

    witness: PellWitness
    defect1: PrecReal
    defect2: PrecReal
    middle1: PrecReal
    middle2_symmetric: PrecReal
    outer: PrecReal
    identity_rel_diff: float
    hypotheses: HypothesisReport
    z_unit_flag: bool
    precision_bits: int


def _defect(ns: int, na: int, nc: int, nx: int, nz: int, n_res: int, sqrt2: tuple, prec: int) -> tuple:
    """Enclosure of min |theta -+ s*x/(a*z)| for theta = (s/a)sqrt(a/c), from exact norms, at prec bits.

    n_res = norm(a*z^2 - c*x^2), and sqrt2 encloses sqrt(2) at prec bits.  With
    N = |theta^2 - approx^2| and S = |theta + approx|^2 + |theta - approx|^2, the two distances u, w obey
    u*w = N and u^2 + w^2 = S, so the smaller is sqrt(2)*N / sqrt(S + sqrt(S^2 - 4N^2)).
    The one subtraction is added to S, which dominates it whenever it cancels,
    so the enclosure stays tight.
    """
    if ns == 0:  # theta = approx = 0
        return _IV_0
    na_iv, nc_iv, nz_iv = _iv_int(na, prec), _iv_int(nc, prec), _iv_int(nz, prec)
    r = mpi_div(_iv_int(ns, prec), na_iv, prec)
    # N = r * sqrt(n_res / nc) / nz
    N = mpi_div(mpi_mul(r, _iv_sqrt(mpi_div(_iv_int(n_res, prec), nc_iv, prec), prec), prec), nz_iv, prec)
    # S = 2 * (r * sqrt(na / nc) + r * nx / nz)
    theta = mpi_mul(r, _iv_sqrt(mpi_div(na_iv, nc_iv, prec), prec), prec)
    approx = mpi_div(mpi_mul(r, _iv_int(nx, prec), prec), nz_iv, prec)
    S = mpi_mul(_IV_2, mpi_add(theta, approx, prec), prec)
    # S^2 - 4N^2 = (u^2 - w^2)^2 >= 0: its lower endpoint is raised to 0
    lo, hi = mpi_sub(mpi_mul(S, S, prec), mpi_mul(mpi_mul(_IV_4, N, prec), N, prec), prec)
    disc = (fzero if mpf_le(lo, fzero) else lo, hi)
    # sqrt(2) * N / sqrt(S + sqrt(disc))
    root = _iv_sqrt(mpi_add(S, _iv_sqrt(disc, prec), prec), prec)
    return mpi_div(mpi_mul(sqrt2, N, prec), root, prec)


def theta_defect(w: PellWitness) -> ThetaCheck:
    """Defects, middle bounds and the shared outer bound 21|c|/(16|a||z|^2).

    Also checks the algebraic identity
    |theta1^2 - (sx/az)^2| = |s^2/a^2| * |c-a| / (|c| |z|^2) exactly, on norms.
    The enclosures are computed at DEFAULT_PRECISION_BITS.
    """
    a, b, c, z = w.a, w.b, w.c, w.z
    if a.is_zero() or b.is_zero() or c.is_zero() or z.is_zero():
        raise ValueError("a, b, c and z must be nonzero")
    bits = DEFAULT_PRECISION_BITS
    na, nb, nc, nz = norm(a), norm(b), norm(c), norm(z)
    ns, nt = norm(w.s), norm(w.t)
    n_res1 = norm(a * z * z - c * w.x * w.x)

    def sqrt(n: int) -> tuple:
        return _iv_sqrt(_iv_int(n, bits), bits)

    def enclose(x: tuple) -> PrecReal:
        return PrecReal(iv.make_mpf(x), bits)

    def middle(n_num: int, n_side: int) -> tuple:
        # sqrt(n_num) / (sqrt(n_side) * sqrt(sqrt(n_side * nc)) * nz)
        den = mpi_mul(sqrt(n_side), _iv_sqrt(sqrt(n_side * nc), bits), bits)
        return mpi_div(sqrt(n_num), mpi_mul(den, _iv_int(nz, bits), bits), bits)

    # |z|^2 = norm(z) exactly; all other magnitudes are square roots of exact norms
    sqrt2 = _iv_sqrt(_IV_2, bits)
    defect1 = _defect(ns, na, nc, norm(w.x), nz, n_res1, sqrt2, bits)
    defect2 = _defect(nt, nb, nc, norm(w.y), nz, norm(b * z * z - c * w.y * w.y), sqrt2, bits)
    middle1 = middle(ns * norm(a - c), na)
    middle2_sym = middle(nt * norm(b - c), nb)
    # outer = 21 * sqrt(nc) / (16 * sqrt(na) * nz)
    outer = mpi_div(
        mpi_mul(_IV_21, sqrt(nc), bits),
        mpi_mul(mpi_mul(_IV_16, sqrt(na), bits), _iv_int(nz, bits), bits),
        bits,
    )

    hyp = HypothesisReport(
        (
            Comparison("|c| > 4|b|", ">", nc, 16 * nb),
            Comparison("|c| > 4|a|", ">", nc, 16 * na),
            Comparison("|a| >= 2", ">=", na, 4),
        )
    )
    return ThetaCheck(
        witness=w,
        defect1=enclose(defect1),
        defect2=enclose(defect2),
        middle1=enclose(middle1),
        middle2_symmetric=enclose(middle2_sym),
        outer=enclose(outer),
        identity_rel_diff=_margin(ns * n_res1, ns * norm(c - a)),
        hypotheses=hyp,
        z_unit_flag=nz <= 1,
        precision_bits=bits,
    )


@dataclass(frozen=True)
class ChainTrace:
    steps: tuple[Comparison, ...]
    notes: tuple[str, ...] = ()

    @property
    def confirmed(self) -> bool:
        return all(s.holds for s in self.steps)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "confirmed": self.confirmed,
            "steps": [s.to_json() for s in self.steps],
            "notes": list(self.notes),
        }

    def format_table(self) -> str:
        lines = []
        for i, s in enumerate(self.steps, 1):
            status = "ok  " if s.holds else "FAIL"
            lines.append(f"[{status}] step {i}: {s.name}")
            lines.append(f"        {s.lhs} {s.relation} {s.rhs}")
        lines.append(f"trace {'CONFIRMED' if self.confirmed else 'NOT CONFIRMED'}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


GROWTH = Fraction(13, 66)  # reduced reciprocal of 330/65


def _cascade(x: Fraction, steps: int) -> Fraction:
    """Apply the quadruple lower-bound squaring x -> x^2 * 13/66 repeatedly."""
    for _ in range(steps):
        x = x * x * GROWTH
    return x


def chain_verify() -> ChainTrace:
    """Exact-integer verification of the magnitude chain ending in the contradiction.

    Floors: the 4th element of any long tuple has magnitude >= 12 and the 5th
    >= 15; the squaring cascade then forces the growth that collides with the
    upper bound 3956^10 |c|^24.  Every comparison below is on big integers or
    exact fractions; a failing step is recorded, never raised.  Only the literal
    index and floor bookkeeping of steps (ii) and (vi) raises RuntimeError.
    """
    floor = 10**27  # the floor of the 22nd magnitude that step (iv) certifies
    # literal side conditions of steps (ii) and (vi); raised, so they also run under -O
    if 7 + 3 * 5 != 22 or floor < 18 * 10**6:
        raise RuntimeError("chain bookkeeping: 5 steps must take index 7 to 22, and 10^27 >= 1.8*10^7")
    f35 = Fraction(35)
    steps = (
        # (i) 12 * 15 * (13/66) > 35
        Comparison("floor of the 7th magnitude: 12*15*13 vs 35*66", ">", 12 * 15 * 13, 35 * 66),
        # (ii) five squaring steps take index 7 to 22 and give x^32 * (13/66)^31
        Comparison(
            "squaring cascade 7->22 (5 steps of x -> x^2*13/66) matches x^32*(13/66)^31 at x=35",
            "==",
            _cascade(f35, 5),
            f35**32 * GROWTH**31,
        ),
        # (iii) the 22nd magnitude exceeds the 7th to the 16th power: x^16 > (66/13)^31 at x=35
        Comparison("16th-power domination at the floor 35: 35^16*13^31 vs 66^31", ">", 35**16 * 13**31, 66**31),
        # (iv) the 22nd magnitude exceeds 10^27: 35^32*13^31 > 10^27*66^31
        Comparison(
            "22nd magnitude exceeds 1e27: 35^32*13^31 vs 10^27*66^31", ">", 35**32 * 13**31, 10**27 * 66**31
        ),
        # (v) the threshold 1.8e7 suffices: (18e6)^8*13^31 >= 66^31*3956^10
        Comparison(
            "threshold sufficiency: (18*10^6)^8*13^31 vs 66^31*3956^10",
            ">=",
            (18 * 10**6) ** 8 * 13**31,
            66**31 * 3956**10,
        ),
        # (vi) contradiction: with the floor 10^27 from (iv), the cascade output
        # strictly exceeds the upper bound, i.e. F^8*13^31 > 66^31*3956^10
        Comparison(
            "final collision at the floor 10^27: F^8*13^31 vs 66^31*3956^10 (F=10^27 >= 1.8*10^7)",
            ">",
            floor**8 * 13**31,
            66**31 * 3956**10,
        ),
    )
    notes = (
        "all magnitude inequalities are squared/cross-multiplied into exact integers;"
        " 330/65 is stored reduced as 66/13",
        "the gap-lemma growth hypothesis is read as |b|^16 < |c|"
        " (the magnitude bound needs |b|^7.8 < |c|^0.4875)",
    )
    return ChainTrace(steps, notes)


def threshold_a22() -> int:
    """Smallest positive N with N^8 * 13^31 >= 66^31 * 3956^10, that is N^8 >= q = ceil(66^31 * 3956^10 / 13^31).

    Nested integer square roots give n = floor(q^(1/8)), so n^8 <= q < (n + 1)^8 and N is n or n + 1.
    """
    q = -(-(66**31 * 3956**10) // 13**31)
    n = isqrt(isqrt(isqrt(q)))
    return n if n**8 >= q else n + 1

