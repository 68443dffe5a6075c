"""D(n)-tuple verification, Pell-system witnesses, extension and the c+- construction.

A set of nonzero, pairwise distinct elements of O_K is a D(n) tuple when
every pairwise product shifted by n is a square in O_K.  The extension
machinery (PellWitness, extend_triple, c_plus_minus) is specific to the
shift n = -1: a quadruple {a, b, c, d} then satisfies the Pellian system
a*z^2 - c*x^2 = c - a, b*z^2 - c*y^2 = c - b with c*d = z^2 + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quad_ring import (
    QuadInt,
    RingParams,
    _div_half,
    _from_half_unchecked,
    _iter_half,
    _sqrt_half,
    elem_key,
    elem_to_json,
    format_elem,
    sqrt_exact,
)

__all__ = [
    "DioTuple",
    "PairCheck",
    "VerifyReport",
    "PellWitness",
    "ExtensionPair",
    "make_tuple",
    "pair_witness",
    "verify_tuple",
    "is_regular",
    "build_pell_witness",
    "pell_residuals",
    "extend_triple",
    "c_plus_minus",
    "tuple_orbit",
]


@dataclass(frozen=True)
class DioTuple:
    """Candidate D(n) tuple: ring, shift n and elements sorted by (norm, x, y)."""

    ring: RingParams
    n: QuadInt
    elems: tuple[QuadInt, ...]

    def to_json(self) -> dict:
        return {
            "D": self.ring.D,
            "n": elem_to_json(self.n),
            "elems": [elem_to_json(e) for e in self.elems],
        }


def make_tuple(ring: RingParams, n: QuadInt, elems) -> DioTuple:
    """Validate and normalize: same ring, nonzero, pairwise distinct, sorted."""
    if n.ring != ring:
        raise ValueError("shift n lives in a different ring")
    elems = list(elems)
    for e in elems:
        if e.ring != ring:
            raise ValueError(f"element {e} lives in a different ring")
        if e.is_zero():
            raise ValueError("tuple elements must be nonzero")
    if len(set(elems)) != len(elems):
        raise ValueError("tuple elements must be pairwise distinct")
    return DioTuple(ring, n, tuple(sorted(elems, key=elem_key)))


def pair_witness(a: QuadInt, b: QuadInt, n: QuadInt) -> QuadInt | None:
    """Canonical x with a*b + n = x^2, or None."""
    return sqrt_exact(a * b + n)


@dataclass(frozen=True)
class PairCheck:
    a: QuadInt
    b: QuadInt
    witness: QuadInt | None


@dataclass(frozen=True)
class VerifyReport:
    tup: DioTuple
    ok: bool
    pairs: tuple[PairCheck, ...]
    failing_pair: tuple[QuadInt, QuadInt] | None

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "tuple": self.tup.to_json(),
            "pass": self.ok,
            "pairs": [
                {
                    "a": elem_to_json(p.a),
                    "b": elem_to_json(p.b),
                    "witness": None if p.witness is None else elem_to_json(p.witness),
                }
                for p in self.pairs
            ],
            "failing_pair": None
            if self.failing_pair is None
            else [elem_to_json(self.failing_pair[0]), elem_to_json(self.failing_pair[1])],
        }


def verify_tuple(t: DioTuple) -> VerifyReport:
    """Check every unordered pair; stops at the first pair without a witness."""
    checks: list[PairCheck] = []
    es = t.elems
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            w = pair_witness(es[i], es[j], t.n)
            checks.append(PairCheck(es[i], es[j], w))
            if w is None:
                return VerifyReport(t, False, tuple(checks), (es[i], es[j]))
    return VerifyReport(t, True, tuple(checks), None)


def _minus_one(ring: RingParams) -> QuadInt:
    return QuadInt(ring, -1, 0)


def _witnesses(**pairs: tuple[QuadInt, QuadInt]) -> dict[str, QuadInt]:
    """Canonical D(-1) witnesses sqrt(p*q - 1) by name; raises naming the first missing square."""
    out = {}
    for name, (p, q) in pairs.items():
        w = pair_witness(p, q, _minus_one(p.ring))
        if w is None:
            raise ValueError(f"{format_elem(p)}*{format_elem(q)} - 1 is not a square ({name} missing)")
        out[name] = w
    return out


def is_regular(a: QuadInt, b: QuadInt, c: QuadInt) -> bool:
    """True iff c = a + b + 2r or a + b - 2r for the canonical r = sqrt(ab - 1)."""
    r = _witnesses(r=(a, b))["r"]
    s = a + b
    return c == s + 2 * r or c == s - 2 * r


@dataclass(frozen=True)
class PellWitness:
    """Quadruple (a, b, c, d) with its six canonical square witnesses.

    r^2 = ab-1, s^2 = ac-1, t^2 = bc-1, x^2 = ad-1, y^2 = bd-1, z^2 = cd-1.
    """

    a: QuadInt
    b: QuadInt
    c: QuadInt
    d: QuadInt
    r: QuadInt
    s: QuadInt
    t: QuadInt
    x: QuadInt
    y: QuadInt
    z: QuadInt


def build_pell_witness(a: QuadInt, b: QuadInt, c: QuadInt, d: QuadInt) -> PellWitness:
    """Extract all six canonical witnesses; raises naming the first missing square."""
    return PellWitness(
        a, b, c, d,
        **_witnesses(r=(a, b), s=(a, c), t=(b, c), x=(a, d), y=(b, d), z=(c, d)),
    )


def pell_residuals(w: PellWitness) -> tuple[QuadInt, QuadInt]:
    """(a*z^2 - c*x^2 - (c - a), b*z^2 - c*y^2 - (c - b)); (0, 0) for a genuine witness."""
    z2 = w.z * w.z
    r1 = w.a * z2 - w.c * (w.x * w.x) - (w.c - w.a)
    r2 = w.b * z2 - w.c * (w.y * w.y) - (w.c - w.b)
    return r1, r2


def extend_triple(
    a: QuadInt,
    b: QuadInt,
    c: QuadInt,
    z_norm_bound: int,
    n: QuadInt | None = None,
) -> list[tuple[QuadInt, PellWitness]]:
    """All extensions d = (z^2 + 1)/c of the D(-1) triple {a, b, c} from a z-scan.

    Scans nonzero z with norm(z) <= z_norm_bound; keeps d when c | z^2 + 1,
    d is not in {0, a, b, c} and ad - 1, bd - 1 are squares.  Results are
    ordered by (norm, x, y) of the first z producing each d (z and -z give
    the same d, which is reported once).

    The scan runs on half-coordinates (see quad_ring): z^2 + 1 is divided by
    c with _div_half and ad - 1, bd - 1 are tested with _sqrt_half, all on
    plain ints; elements and Pell witnesses are built only for the hits.
    """
    ring = a.ring
    m1 = _minus_one(ring)
    if n is not None and n != m1:
        raise ValueError("extension machinery is specific to the shift n = -1")
    if z_norm_bound < 0:
        raise ValueError("z_norm_bound must be >= 0")
    if c.is_zero():
        raise ValueError("c must be nonzero")
    triple = make_tuple(ring, m1, [a, b, c])
    if not verify_tuple(triple).ok:
        raise ValueError("{a, b, c} is not a D(-1) triple")

    D, mode = ring.D, ring.omega_mode
    (au, av), (bu, bv), (cu, cv) = a.half_coords(), b.half_coords(), c.half_coords()
    excluded = {(0, 0), (au, av), (bu, bv), (cu, cv)}
    hits: dict[tuple[int, int], tuple[int, int]] = {}  # d -> the first z giving it
    for u, v in _iter_half(D, mode, z_norm_bound):
        # z^2 + 1, with 1 = (2 + 0*sqrt(-D))/2
        d = _div_half(D, mode, (u * u - D * v * v) // 2 + 2, u * v, cu, cv)
        if d is None or d in hits or d in excluded:
            continue
        du, dv = d
        if _sqrt_half(D, mode, (au * du - D * av * dv) // 2 - 2, (au * dv + av * du) // 2) is None:
            continue
        if _sqrt_half(D, mode, (bu * du - D * bv * dv) // 2 - 2, (bu * dv + bv * du) // 2) is None:
            continue
        hits[d] = (u, v)

    # z and -z are the only z giving d; order d by the smaller of the two
    survivors = []
    for dh, zh in hits.items():
        z = _from_half_unchecked(ring, *zh)
        survivors.append((min(elem_key(z), elem_key(-z)), _from_half_unchecked(ring, *dh)))
    survivors.sort(key=lambda s: s[0])
    return [(d, build_pell_witness(a, b, c, d)) for _, d in survivors]


@dataclass(frozen=True)
class ExtensionPair:
    """The two completions c_+- = a + b + d - 2abd +- 2rxy of a D(-1) triple {a, b, d}."""

    c_plus: QuadInt
    c_minus: QuadInt
    a: QuadInt
    b: QuadInt
    d: QuadInt
    r: QuadInt
    x: QuadInt
    y: QuadInt


def c_plus_minus(a: QuadInt, b: QuadInt, d: QuadInt) -> ExtensionPair:
    """Compute c_+-; |c_+| >= |c_-|, and c_+ * c_- equals the exact symmetric form.

    Flipping the sign of any witness only swaps c_+ and c_-, so the canonical
    witnesses from sqrt_exact lose no generality.
    """
    w = _witnesses(r=(a, b), x=(a, d), y=(b, d))
    r, x, y = w["r"], w["x"], w["y"]
    e = a + b + d - 2 * (a * b * d)
    f = 2 * (r * x * y)
    cp, cm = e + f, e - f
    if cp.norm() < cm.norm():
        cp, cm = cm, cp
    prod = (
        a * a + b * b + d * d - 2 * (a * b) - 2 * (a * d) - 2 * (b * d) + 4
    )
    if cp * cm != prod:
        raise AssertionError("c_plus * c_minus identity violated")
    return ExtensionPair(cp, cm, a, b, d, r, x, y)


def tuple_orbit(t: DioTuple) -> set[DioTuple]:
    """Closure of t under global negation and (for real n) conjugation."""
    ring = t.ring
    out = {t, make_tuple(ring, t.n, [-e for e in t.elems])}
    _, v = t.n.half_coords()
    if v == 0:  # conjugation preserves D(n) only for real n
        cj = make_tuple(ring, t.n, [e.conj() for e in t.elems])
        out.add(cj)
        out.add(make_tuple(ring, t.n, [-e for e in cj.elems]))
    return out
