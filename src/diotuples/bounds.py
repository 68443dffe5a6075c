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
  enclosures: mpmath.iv intervals at the requested working precision, with
  directed rounding done by mpmath.  No verdict is read off them.

Every exact comparison, of a hypothesis clause or a chain step, is one
Comparison record whose verdict is computed from its operands.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath import iv

from .quad_ring import QuadInt, norm
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


@contextmanager
def _iv_precision(bits: int):
    """Run the block at mpmath.iv precision `bits`; iv.prec is global, so restore it."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


@dataclass(frozen=True)
class PrecReal:
    """A rigorous enclosure (an mpmath.iv interval) evaluated at a working precision.

    The caller must compute the enclosure at precision_bits, for example under
    _iv_precision(precision_bits), as jz_constants and theta_defect do; the
    label is not checked against the interval's width.
    """

    enclosure: iv.mpf
    precision_bits: int

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")

    @property
    def value(self) -> mpmath.mpf:
        """Midpoint of the enclosure."""
        e = self.enclosure
        with mpmath.workprec(self.precision_bits):
            return (mpmath.mpf(e.a) + mpmath.mpf(e.b)) / 2

    @property
    def max_rel_error(self) -> float:
        """Bound on |x - value| / |x| over the enclosure: 0.0 for a point, inf across 0."""
        e = self.enclosure
        if e.a == e.b:
            return 0.0
        if 0 in e:
            return float("inf")
        return float(mpmath.mpf((e.delta / 2 / min(abs(e.a), abs(e.b))).b))

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


def _margin(x: int, y: int) -> float:
    """Relative gap |x - y| / max(|x|, |y|) of the exact comparison x vs y; 0.0 on a tie."""
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def _pair_norms(a1: QuadInt, a2: QuadInt) -> tuple[int, int, int]:
    """(norm(a1), norm(a2), norm(a1 - a2)), once a1 != a2, both are nonzero and share a ring.

    Raises ValueError otherwise, in that order; the mixed-ring message is that of
    a1 - a2.  The checks and norms are unchanged by (a1, a2) -> (-a1, -a2).
    """
    if a1 == a2:
        raise ValueError("a1 and a2 must be distinct")
    if a1.is_zero() or a2.is_zero():
        raise ValueError("a1 and a2 must be nonzero")
    ring = a1.ring
    if a2.ring != ring:
        raise ValueError(f"mixed rings: {ring} vs {a2.ring}")
    (u1, v1), (u2, v2), D = a1.half_coords(), a2.half_coords(), ring.D
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
    and ValueError when precision_bits < 64.
    """
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    nT = norm(T)
    M_sq, N, min_sq, _ = _lemma_norms(*_pair_norms(a1, a2), nT)
    with _iv_precision(precision_bits):
        rT = iv.sqrt(nT)
        rM = iv.sqrt(M_sq)
        gap = rT - rM  # |T| - M > 0, decided exactly by _lemma_norms
        L = gap * gap * 27 / (16 * N)
        l = rT * 27 / (64 * gap)
        num = 2 * rT + 3 * rM
        p = iv.sqrt(num / (2 * gap))
        P = 16 * N * num / (min_sq * iv.sqrt(min_sq))
        lam = 1 + iv.log(P) / iv.log(L)
        two_l = 2 * l
        # max(1, 2l), taken on the endpoints: the hull [1, 2l.b] when 2l straddles 1
        base = iv.mpf([max(1, two_l.a), max(1, two_l.b)])
        c1 = 1 / (4 * p * P * base ** (lam - 1))
    consts = (PrecReal(x, precision_bits) for x in (L, l, p, P, lam, c1))
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
    runs entirely on integer norms.
    """
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
    ring = a.ring
    for other in (b, c):
        if other.ring != ring:
            raise ValueError(f"mixed rings: {ring} vs {other.ring}")
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
    """Exact squared form of the lower bound |ab| * 13/66 on |d|: norm(a) norm(b) 169/4356."""
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


def _defect(ns: int, na: int, nc: int, nx: int, nz: int, n_res: int) -> iv.mpf:
    """Enclosure of min |theta -+ s*x/(a*z)| for theta = (s/a)sqrt(a/c), from exact norms.

    n_res = norm(a*z^2 - c*x^2).  With N = |theta^2 - approx^2| and
    S = |theta + approx|^2 + |theta - approx|^2, the two distances u, w obey
    u*w = N and u^2 + w^2 = S, so the smaller is sqrt(2)*N / sqrt(S + sqrt(S^2 - 4N^2)).
    The one subtraction is added to S, which dominates it whenever it cancels,
    so the enclosure stays tight.  Runs at the caller's iv precision.
    """
    if ns == 0:  # theta = approx = 0
        return iv.mpf(0)
    r = iv.mpf(ns) / na
    N = r * iv.sqrt(iv.mpf(n_res) / nc) / nz
    S = 2 * (r * iv.sqrt(iv.mpf(na) / nc) + r * nx / nz)
    disc = S * S - 4 * N * N
    disc = iv.mpf([max(0, disc.a), disc.b])  # S^2 - 4N^2 = (u^2 - w^2)^2 >= 0
    return iv.sqrt(2) * N / iv.sqrt(S + iv.sqrt(disc))


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

    # |z|^2 = norm(z) exactly; all other magnitudes are square roots of exact norms
    with _iv_precision(bits):
        defect1 = _defect(ns, na, nc, norm(w.x), nz, n_res1)
        defect2 = _defect(nt, nb, nc, norm(w.y), nz, norm(b * z * z - c * w.y * w.y))
        middle1 = iv.sqrt(ns * norm(a - c)) / (iv.sqrt(na) * iv.sqrt(iv.sqrt(na * nc)) * nz)
        middle2_sym = iv.sqrt(nt * norm(b - c)) / (iv.sqrt(nb) * iv.sqrt(iv.sqrt(nb * nc)) * nz)
        outer = 21 * iv.sqrt(nc) / (16 * iv.sqrt(na) * nz)

    hyp = HypothesisReport(
        (
            Comparison("|c| > 4|b|", ">", nc, 16 * nb),
            Comparison("|c| > 4|a|", ">", nc, 16 * na),
            Comparison("|a| >= 2", ">=", na, 4),
        )
    )
    return ThetaCheck(
        witness=w,
        defect1=PrecReal(defect1, bits),
        defect2=PrecReal(defect2, bits),
        middle1=PrecReal(middle1, bits),
        middle2_symmetric=PrecReal(middle2_sym, bits),
        outer=PrecReal(outer, bits),
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

