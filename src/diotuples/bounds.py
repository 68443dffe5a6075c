"""Approximation constants, magnitude bounds and the exact inequality-chain verifier.

Magnitudes |alpha| = sqrt(norm(alpha)) are irrational, so three regimes are
kept strictly apart:

* hypothesis checks are cross-multiplied into exact integer comparisons
  (e.g. |b| >= (3/2)|a|  <=>  4*norm(b) >= 9*norm(a));
* the chain verifier works purely on big integers and exact fractions,
  with the recurring factor 330/65 stored reduced as 66/13;
* genuinely irrational quantities (the constants L, l, p, P, lambda, c1 of
  the Jadrijevic-Ziegler simultaneous-approximation lemma, and the theta
  defects) are evaluated as PrecReal: an mpmath float that carries its
  precision and an accumulated relative-error bound, so every threshold
  comparison can report a trustworthy margin and escalate precision when
  the margin is too thin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath

from .quad_ring import QuadInt, format_elem, norm
from .tuples import PellWitness

__all__ = [
    "PrecReal",
    "JZConstants",
    "HypothesisFailure",
    "HypothesisClause",
    "HypothesisReport",
    "ThetaCheck",
    "ChainStep",
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
    "MAX_PRECISION_BITS",
    "DECISION_MARGIN",
]

DEFAULT_PRECISION_BITS = 128
MAX_PRECISION_BITS = 1024
DECISION_MARGIN = 2.0 ** -64  # minimum relative margin for a trusted comparison


class HypothesisFailure(ValueError):
    """A lemma hypothesis (e.g. L > 1 or |T| > M) does not hold."""


class PrecisionExhausted(ArithmeticError):
    """A comparison stayed undecided at the maximum working precision."""


@dataclass(frozen=True)
class PrecReal:
    """High-precision float plus an accumulated relative-error bound."""

    value: mpmath.mpf
    precision_bits: int
    max_rel_error: float

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")

    @staticmethod
    def _eps(bits: int) -> float:
        return 2.0 ** (1 - bits)

    @classmethod
    def from_int(cls, n: int, bits: int) -> "PrecReal":
        with mpmath.workprec(bits):
            v = mpmath.mpf(n)
        err = 0.0 if abs(n).bit_length() <= bits else cls._eps(bits)
        return cls(v, bits, err)

    @classmethod
    def from_fraction(cls, fr: Fraction, bits: int) -> "PrecReal":
        with mpmath.workprec(bits):
            v = mpmath.mpf(fr.numerator) / mpmath.mpf(fr.denominator)
        return cls(v, bits, 2 * cls._eps(bits))

    @classmethod
    def sqrt_of_int(cls, n: int, bits: int) -> "PrecReal":
        if n < 0:
            raise ValueError("sqrt of negative integer")
        with mpmath.workprec(bits):
            v = mpmath.sqrt(mpmath.mpf(n))
        return cls(v, bits, 2 * cls._eps(bits))

    def _bits_with(self, other: "PrecReal") -> int:
        return min(self.precision_bits, other.precision_bits)

    def add(self, other: "PrecReal") -> "PrecReal":
        bits = self._bits_with(other)
        with mpmath.workprec(bits):
            v = self.value + other.value
        if v == 0:
            # exact zero of a sum is not certifiable here; keep an absolute fallback
            return PrecReal(v, bits, float("inf"))
        if mpmath.sign(self.value) == mpmath.sign(other.value):
            err = max(self.max_rel_error, other.max_rel_error) + self._eps(bits)
        else:
            abs_err = abs(self.value) * self.max_rel_error + abs(other.value) * other.max_rel_error
            err = float(abs_err / abs(v)) + self._eps(bits)
        return PrecReal(v, bits, err)

    def sub(self, other: "PrecReal") -> "PrecReal":
        return self.add(PrecReal(-other.value, other.precision_bits, other.max_rel_error))

    def mul(self, other: "PrecReal") -> "PrecReal":
        bits = self._bits_with(other)
        with mpmath.workprec(bits):
            v = self.value * other.value
        return PrecReal(v, bits, self.max_rel_error + other.max_rel_error + self._eps(bits))

    def div(self, other: "PrecReal") -> "PrecReal":
        bits = self._bits_with(other)
        with mpmath.workprec(bits):
            v = self.value / other.value
        return PrecReal(v, bits, self.max_rel_error + other.max_rel_error + self._eps(bits))

    def sqrt(self) -> "PrecReal":
        if self.value < 0:
            raise ValueError("sqrt of negative PrecReal")
        with mpmath.workprec(self.precision_bits):
            v = mpmath.sqrt(self.value)
        return PrecReal(v, self.precision_bits, self.max_rel_error / 2 + self._eps(self.precision_bits))

    def log(self) -> "PrecReal":
        if self.value <= 0:
            raise ValueError("log of non-positive PrecReal")
        bits = self.precision_bits
        with mpmath.workprec(bits):
            v = mpmath.log(self.value)
        if v == 0:
            return PrecReal(v, bits, float("inf"))
        err = self.max_rel_error / abs(float(v)) + self._eps(bits)
        return PrecReal(v, bits, err)

    def pow(self, exponent: "PrecReal") -> "PrecReal":
        """self ** exponent via exp(exponent * log(self)); requires self > 0."""
        bits = self._bits_with(exponent)
        if self.value == 1:
            # 1^e = 1; a base off 1 by ra perturbs the power by about |e|*ra
            err = abs(float(exponent.value)) * self.max_rel_error + self._eps(bits)
            return PrecReal(mpmath.mpf(1), bits, err)
        lg = self.log()
        with mpmath.workprec(bits):
            v = mpmath.exp(exponent.value * lg.value)
        # d(a^e)/a^e = e*dlog(a) + log(a)*de
        scale = abs(float(exponent.value)) * abs(float(lg.value))
        err = scale * (lg.max_rel_error + exponent.max_rel_error) + self._eps(bits)
        return PrecReal(v, bits, err)

    def compare(self, other: "PrecReal") -> tuple[int, float]:
        """(sign of self - other, relative margin of the gap)."""
        with mpmath.workprec(max(self.precision_bits, other.precision_bits)):
            diff = self.value - other.value
            scale = max(abs(self.value), abs(other.value))
        if scale == 0:
            return 0, 0.0
        margin = float(abs(diff) / scale)
        sign = 0 if diff == 0 else (1 if diff > 0 else -1)
        return sign, margin

    def compare_fraction(self, fr: Fraction) -> tuple[int, float]:
        return self.compare(PrecReal.from_fraction(fr, self.precision_bits))

    def decided_against(self, other: "PrecReal") -> bool:
        """True when the comparison margin dominates both error bounds and 2^-64."""
        _, margin = self.compare(other)
        return margin > max(self.max_rel_error + other.max_rel_error, DECISION_MARGIN)

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


def _jz_at_precision(a1: QuadInt, a2: QuadInt, T: QuadInt, bits: int) -> JZConstants:
    n1, n2 = norm(a1), norm(a2)
    n12 = norm(a1 - a2)
    nT = norm(T)
    M_sq = max(n1, n2)
    N = n1 * n2 * n12
    min_sq = min(n1, n2, n12)

    rT = PrecReal.sqrt_of_int(nT, bits)
    rM = PrecReal.sqrt_of_int(M_sq, bits)
    gap = rT.sub(rM)  # |T| - M > 0, enforced exactly by the caller

    L = gap.mul(gap).mul(PrecReal.from_fraction(Fraction(27, 16 * N), bits))
    l = rT.mul(PrecReal.from_fraction(Fraction(27, 64), bits)).div(gap)
    two = PrecReal.from_int(2, bits)
    three = PrecReal.from_int(3, bits)
    p = two.mul(rT).add(three.mul(rM)).div(two.mul(gap)).sqrt()
    min_cube = PrecReal.from_int(min_sq, bits).mul(PrecReal.sqrt_of_int(min_sq, bits))
    P = (
        PrecReal.from_int(16 * N, bits)
        .mul(two.mul(rT).add(three.mul(rM)))
        .div(min_cube)
    )
    lam = PrecReal.from_int(1, bits).add(P.log().div(L.log()))

    one = PrecReal.from_int(1, bits)
    two_l = two.mul(l)
    sign, _ = two_l.compare(one)
    base = two_l if sign > 0 else one
    lam_minus_1 = lam.sub(one)
    c1_inv = PrecReal.from_int(4, bits).mul(p).mul(P).mul(base.pow(lam_minus_1))
    c1 = one.div(c1_inv)
    return JZConstants(a1, a2, T, M_sq, L, l, p, P, lam, c1, bits)


def jz_constants(
    a1: QuadInt,
    a2: QuadInt,
    T: QuadInt,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> JZConstants:
    """Evaluate M, L, l, p, P, lambda, c1; escalates precision until L > 1 is certain.

    Exact preconditions: a1 != a2, both nonzero, and |T| > M (checked on norms).
    Raises HypothesisFailure when |T| <= M or when L <= 1 with a decided margin.
    """
    if a1 == a2:
        raise ValueError("a1 and a2 must be distinct")
    if a1.is_zero() or a2.is_zero():
        raise ValueError("a1 and a2 must be nonzero")
    if norm(T) <= max(norm(a1), norm(a2)):
        raise HypothesisFailure("|T| <= M = max(|a1|, |a2|)")

    bits = precision_bits
    while True:
        consts = _jz_at_precision(a1, a2, T, bits)
        one = PrecReal.from_int(1, bits)
        if consts.L.decided_against(one):
            sign, _ = consts.L.compare(one)
            if sign < 0:
                raise HypothesisFailure("L <= 1: approximation lemma does not apply")
            return consts
        if bits >= MAX_PRECISION_BITS:
            raise PrecisionExhausted(
                f"L vs 1 undecided at {bits} bits for T={format_elem(T)}"
            )
        bits *= 2


@dataclass(frozen=True)
class HypothesisClause:
    name: str
    holds: bool
    lhs: int
    rhs: int


@dataclass(frozen=True)
class HypothesisReport:
    clauses: tuple[HypothesisClause, ...]

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
        HypothesisClause("|b| >= (3/2)|a|", 4 * nb >= 9 * na, 4 * nb, 9 * na),
        HypothesisClause("|b| >= 22", nb >= 484, nb, 484),
        HypothesisClause("|a| >= 2", na >= 4, na, 4),
        HypothesisClause("|c| > |b|^16", nc > nb**16, nc, nb**16),
    )
    return HypothesisReport(clauses)


def gap_lemma_checks(
    a: QuadInt,
    b: QuadInt,
    c: QuadInt,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> dict[str, tuple[bool, float, int]]:
    """Constant-level consequences of the gap-lemma hypotheses on (a, b, c).

    Instantiates the approximation constants at (a1, a2, T) = (-b, -a, abc)
    and decides l < 1/2, p <= sqrt(47/42), L > 1 and lambda < 1.8, each with
    a relative margin; precision doubles (up to the cap) until every margin
    clears both the accumulated error bound and 2^-64.
    """
    bits = precision_bits
    while True:
        consts = jz_constants(-b, -a, a * b * c, bits)
        bits = consts.precision_bits
        half = PrecReal.from_fraction(Fraction(1, 2), bits)
        p_cap = PrecReal.from_fraction(Fraction(47, 42), bits).sqrt()
        one = PrecReal.from_int(1, bits)
        lam_cap = PrecReal.from_fraction(Fraction(9, 5), bits)

        outcomes = {}
        decided = True
        for name, value, threshold, want_below in (
            ("l < 1/2", consts.l, half, True),
            ("p <= sqrt(47/42)", consts.p, p_cap, True),
            ("L > 1", consts.L, one, False),
            ("lambda < 1.8", consts.lam, lam_cap, True),
        ):
            sign, margin = value.compare(threshold)
            holds = sign < 0 if want_below else sign > 0
            certain = margin > max(value.max_rel_error + threshold.max_rel_error, DECISION_MARGIN)
            outcomes[name] = (holds, margin, bits)
            decided = decided and certain
        if decided:
            return outcomes
        if bits >= MAX_PRECISION_BITS:
            raise PrecisionExhausted(f"gap-lemma margins undecided at {bits} bits")
        bits *= 2


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
    """

    witness: PellWitness
    theta1: mpmath.mpc
    theta2: mpmath.mpc
    defect1: PrecReal
    defect2: PrecReal
    middle1: PrecReal
    middle2_symmetric: PrecReal
    outer: PrecReal
    identity_rel_diff: float
    hypotheses: HypothesisReport
    z_unit_flag: bool
    precision_bits: int


def _to_mpc(alpha: QuadInt, bits: int) -> mpmath.mpc:
    u, v = alpha.half_coords()
    with mpmath.workprec(bits):
        rt = mpmath.sqrt(mpmath.mpf(alpha.ring.D))
        return mpmath.mpc(mpmath.mpf(u) / 2, mpmath.mpf(v) * rt / 2)


def theta_defect(w: PellWitness, precision_bits: int = DEFAULT_PRECISION_BITS) -> ThetaCheck:
    """Defects, middle bounds and the shared outer bound 21|c|/(16|a||z|^2).

    Also cross-checks the exact algebraic identity
    |theta1^2 - (sx/az)^2| = |s^2/a^2| * |c-a| / (|c| |z|^2) at working precision.
    """
    a, b, c, z = w.a, w.b, w.c, w.z
    if a.is_zero() or b.is_zero() or c.is_zero() or z.is_zero():
        raise ValueError("a, b, c and z must be nonzero")
    bits = precision_bits
    na, nb, nc, nz = norm(a), norm(b), norm(c), norm(z)
    ns, nt = norm(w.s), norm(w.t)

    with mpmath.workprec(bits):
        ac, bc_, cc = _to_mpc(a, bits), _to_mpc(b, bits), _to_mpc(c, bits)
        sc, tc = _to_mpc(w.s, bits), _to_mpc(w.t, bits)
        xc, yc, zc = _to_mpc(w.x, bits), _to_mpc(w.y, bits), _to_mpc(z, bits)

        theta1 = sc / ac * mpmath.sqrt(ac / cc)
        approx1 = sc * xc / (ac * zc)
        if abs(-theta1 - approx1) < abs(theta1 - approx1):
            theta1 = -theta1
        theta2 = tc / bc_ * mpmath.sqrt(bc_ / cc)
        approx2 = tc * yc / (bc_ * zc)
        if abs(-theta2 - approx2) < abs(theta2 - approx2):
            theta2 = -theta2

        d1 = abs(theta1 - approx1)
        d2 = abs(theta2 - approx2)

        # identity check: theta1^2 - (sx/az)^2 = (s^2/a^2)(c-a)/(c z^2) exactly
        lhs_id = abs(theta1 * theta1 - approx1 * approx1)
        rhs_id = abs(sc * sc / (ac * ac)) * abs(cc - ac) / (abs(cc) * abs(zc) ** 2)
        scale = max(lhs_id, rhs_id)
        identity_rel_diff = float(abs(lhs_id - rhs_id) / scale) if scale > 0 else 0.0

    # the defect is a difference of nearby values: its relative error scales
    # with the cancellation factor (|theta| + |approx|) / defect
    eps = PrecReal._eps(bits)
    with mpmath.workprec(bits):
        cancel1 = float((abs(theta1) + abs(approx1)) / d1) if d1 > 0 else 1.0
        cancel2 = float((abs(theta2) + abs(approx2)) / d2) if d2 > 0 else 1.0
    defect1 = PrecReal(d1, bits, 8 * eps * max(cancel1, 1.0))
    defect2 = PrecReal(d2, bits, 8 * eps * max(cancel2, 1.0))

    # |z|^2 = norm(z) exactly; all other magnitudes are sqrt of exact norms
    def _sq(nint: int) -> PrecReal:
        return PrecReal.sqrt_of_int(nint, bits)

    nz_int = PrecReal.from_int(nz, bits)
    middle1 = _sq(ns).mul(_sq(norm(a - c))).div(_sq(na).mul(_sq(na * nc).sqrt())).div(nz_int)
    middle2_sym = _sq(nt).mul(_sq(norm(b - c))).div(_sq(nb).mul(_sq(nb * nc).sqrt())).div(nz_int)
    outer = PrecReal.from_int(21, bits).mul(_sq(nc)).div(
        PrecReal.from_int(16, bits).mul(_sq(na)).mul(nz_int)
    )

    hyp = HypothesisReport(
        (
            HypothesisClause("|c| > 4|b|", nc > 16 * nb, nc, 16 * nb),
            HypothesisClause("|c| > 4|a|", nc > 16 * na, nc, 16 * na),
            HypothesisClause("|a| >= 2", na >= 4, na, 4),
        )
    )
    return ThetaCheck(
        witness=w,
        theta1=theta1,
        theta2=theta2,
        defect1=defect1,
        defect2=defect2,
        middle1=middle1,
        middle2_symmetric=middle2_sym,
        outer=outer,
        identity_rel_diff=identity_rel_diff,
        hypotheses=hyp,
        z_unit_flag=nz <= 1,
        precision_bits=bits,
    )


@dataclass(frozen=True)
class ChainStep:
    description: str
    relation: str
    lhs: object  # int or Fraction
    rhs: object
    holds: bool

    @property
    def margin(self):
        return self.lhs - self.rhs

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "relation": self.relation,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
            "margin": str(self.margin),
        }


@dataclass(frozen=True)
class ChainTrace:
    steps: tuple[ChainStep, ...]
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
            lines.append(f"[{status}] step {i}: {s.description}")
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
    exact fractions; a failing step is recorded, never raised.
    """
    steps: list[ChainStep] = []

    # (i) 12 * 15 * (13/66) > 35
    steps.append(
        ChainStep(
            "floor of the 7th magnitude: 12*15*13 vs 35*66",
            ">",
            12 * 15 * 13,
            35 * 66,
            12 * 15 * 13 > 35 * 66,
        )
    )

    # (ii) five squaring steps take index 7 to 22 and give x^32 * (13/66)^31
    f35 = Fraction(35)
    cascade_val = _cascade(f35, 5)
    closed = f35**32 * GROWTH**31
    steps.append(
        ChainStep(
            "squaring cascade 7->22 (5 steps of x -> x^2*13/66) matches x^32*(13/66)^31 at x=35",
            "==",
            cascade_val,
            closed,
            cascade_val == closed and 7 + 3 * 5 == 22,
        )
    )

    # (iii) the 22nd magnitude exceeds the 7th to the 16th power: x^16 > (66/13)^31 at x=35
    steps.append(
        ChainStep(
            "16th-power domination at the floor 35: 35^16*13^31 vs 66^31",
            ">",
            35**16 * 13**31,
            66**31,
            35**16 * 13**31 > 66**31,
        )
    )

    # (iv) the 22nd magnitude exceeds 10^27: 35^32*13^31 > 10^27*66^31
    steps.append(
        ChainStep(
            "22nd magnitude exceeds 1e27: 35^32*13^31 vs 10^27*66^31",
            ">",
            35**32 * 13**31,
            10**27 * 66**31,
            35**32 * 13**31 > 10**27 * 66**31,
        )
    )

    # (v) the threshold 1.8e7 suffices: (18e6)^8*13^31 >= 66^31*3956^10
    steps.append(
        ChainStep(
            "threshold sufficiency: (18*10^6)^8*13^31 vs 66^31*3956^10",
            ">=",
            (18 * 10**6) ** 8 * 13**31,
            66**31 * 3956**10,
            (18 * 10**6) ** 8 * 13**31 >= 66**31 * 3956**10,
        )
    )

    # (vi) contradiction: with the floor 10^27 from (iv), the cascade output
    # strictly exceeds the upper bound, i.e. F^8*13^31 > 66^31*3956^10
    floor = 10**27
    holds = floor >= 18 * 10**6 and floor**8 * 13**31 > 66**31 * 3956**10
    steps.append(
        ChainStep(
            "final collision at the floor 10^27: F^8*13^31 vs 66^31*3956^10 (F=10^27 >= 1.8*10^7)",
            ">",
            floor**8 * 13**31,
            66**31 * 3956**10,
            holds,
        )
    )

    notes = (
        "all magnitude inequalities are squared/cross-multiplied into exact integers;"
        " 330/65 is stored reduced as 66/13",
        "the gap-lemma growth hypothesis is read as |b|^16 < |c|"
        " (the magnitude bound needs |b|^7.8 < |c|^0.4875)",
    )
    return ChainTrace(tuple(steps), notes)


def threshold_a22() -> int:
    """Smallest positive N with N^8 * 13^31 >= 66^31 * 3956^10 (exact 8th root)."""
    rhs = 66**31 * 3956**10
    den = 13**31
    q = -(-rhs // den)  # ceil(rhs/den)
    n = isqrt(isqrt(isqrt(q)))  # floor of the integer 8th root
    while n**8 * den < rhs:
        n += 1
    while n > 1 and (n - 1) ** 8 * den >= rhs:
        n -= 1
    return n

