"""D(n)-tuple verification, Pell-system witnesses, extension and the c+- construction.

A set of nonzero, pairwise distinct elements of O_K is a D(n) tuple when
every pairwise product shifted by n is a square in O_K (verify_tuple).  A
DioTuple (make_tuple) is checked as it is built, so it holds such a set; every
function here applies the one ring rule of quad_ring, _one_ring.  The
extension machinery (PellWitness, extend_scan, extend_triple, c_plus_minus)
is specific to the shift n = -1: a quadruple {a, b, c, d} then satisfies the
Pellian system a*z^2 - c*x^2 = c - a, b*z^2 - c*y^2 = c - b with c*d = z^2 + 1.

verify_tuple, the D(-1) witnesses, is_regular, c_plus_minus and the
extend_scan z-scan run on half-coordinates (see quad_ring): products formed
on plain ints (inline in verify_tuple and c_plus_minus, with _mul_half
elsewhere), square roots with _sqrt_half and divisions with _div_half;
QuadInt objects are built only for what is returned.

The output records PairCheck, VerifyReport and ExtensionPair are plain
slots dataclasses: they are built per check and never hashed, and a frozen
dataclass pays an object.__setattr__ call per field.  DioTuple and QuadInt
stay frozen because they are hashed: tuple_orbit returns a set of DioTuples,
and search's clique_sets makes frozensets of QuadInts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .quad_ring import (
    QuadInt,
    RingParams,
    _class_rows,
    _div_half,
    _from_half_unchecked,
    _ideal_hnf,
    _mul_half,
    _one_ring,
    _sqrt_half,
    _sqrt_mod,
    elem_key,
    elem_to_json,
    format_elem,
)

__all__ = [
    "DioTuple",
    "PairCheck",
    "VerifyReport",
    "PellWitness",
    "ExtensionPair",
    "make_tuple",
    "verify_tuple",
    "is_regular",
    "build_pell_witness",
    "pell_residuals",
    "ExtendScan",
    "extend_scan",
    "extend_triple",
    "c_plus_minus",
    "tuple_orbit",
]


@dataclass(frozen=True)
class DioTuple:
    """Candidate D(n) tuple, checked as it is built: n and elements in ring (_one_ring), the elements
    nonzero and pairwise distinct, and stored as a tuple sorted by elem_key (norm, x, y)."""

    ring: RingParams
    n: QuadInt
    elems: tuple[QuadInt, ...]

    def __post_init__(self) -> None:
        elems = sorted(self.elems, key=elem_key)
        _one_ring(self.ring, self.n, *elems)
        for e in elems:
            if e.is_zero():
                raise ValueError("tuple elements must be nonzero")
        if len({(e.x, e.y) for e in elems}) != len(elems):  # one ring, so coordinates decide equality
            raise ValueError("tuple elements must be pairwise distinct")
        object.__setattr__(self, "elems", tuple(elems))

    def to_json(self) -> dict:
        return {
            "D": self.ring.D,
            "n": elem_to_json(self.n),
            "elems": [elem_to_json(e) for e in self.elems],
        }


make_tuple = DioTuple  # the public constructor, as search, the CLI and the benchmark call it


@dataclass(slots=True)
class PairCheck:
    a: QuadInt
    b: QuadInt
    witness: QuadInt | None


@dataclass(slots=True)
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
    """Check every unordered pair; stops at the first pair without a witness.

    Each a*b + n is formed inline on half-coordinates, as _mul_half forms a
    product, and tested with _sqrt_half; a QuadInt is built only for a witness.
    """
    ring = t.ring
    D = ring.D
    es = t.elems
    (Un, Vn), *hs = [e.half_coords() for e in (t.n, *es)]  # one ring, as DioTuple is built
    checks: list[PairCheck] = []
    for i, (u1, v1) in enumerate(hs):
        a = es[i]
        for j in range(i + 1, len(es)):
            b = es[j]
            u2, v2 = hs[j]
            root = _sqrt_half(D, (u1 * u2 - D * v1 * v2) // 2 + Un, (u1 * v2 + v1 * u2) // 2 + Vn)
            if root is None:
                checks.append(PairCheck(a, b, None))
                return VerifyReport(t, False, tuple(checks), (a, b))
            checks.append(PairCheck(a, b, _from_half_unchecked(ring, *root)))
    return VerifyReport(t, True, tuple(checks), None)


def _witness_half(D: int, pq: tuple[int, int], p: QuadInt, q: QuadInt, name: str) -> tuple[int, int]:
    """Half-coordinates of the canonical sqrt(p*q - 1), from those of p*q; raises naming the missing square."""
    root = _sqrt_half(D, pq[0] - 2, pq[1])  # p*q - 1, with 1 = (2 + 0*s)/2
    if root is None:
        raise ValueError(f"{format_elem(p)}*{format_elem(q)} - 1 is not a square ({name} missing)")
    return root


def is_regular(a: QuadInt, b: QuadInt, c: QuadInt) -> bool:
    """True iff c = a + b + 2r or a + b - 2r for the canonical r = sqrt(ab - 1).

    Raises on elements from two rings, c included, before r is looked for;
    then as build_pell_witness does for r.
    """
    ring = a.ring
    _one_ring(ring, b, c)
    ha, hb, (cu, cv) = a.half_coords(), b.half_coords(), c.half_coords()
    ru, rv = _witness_half(ring.D, _mul_half(ring.D, ha, hb), a, b, "r")
    du, dv = cu - ha[0] - hb[0], cv - ha[1] - hb[1]  # c - (a + b) = +-2r
    return (du, dv) == (2 * ru, 2 * rv) or (du, dv) == (-2 * ru, -2 * rv)


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
    """Extract all six canonical witnesses; raises naming the first missing square, or on a pair from two rings."""
    ring = a.ring
    D = ring.D
    w = {}
    for name, p, q in (("r", a, b), ("s", a, c), ("t", b, c), ("x", a, d), ("y", b, d), ("z", c, d)):
        _one_ring(ring, p, q)
        pq = _mul_half(D, p.half_coords(), q.half_coords())
        w[name] = _from_half_unchecked(ring, *_witness_half(D, pq, p, q, name))
    return PellWitness(a, b, c, d, **w)


def pell_residuals(w: PellWitness) -> tuple[QuadInt, QuadInt]:
    """(a*z^2 - c*x^2 - (c - a), b*z^2 - c*y^2 - (c - b)); (0, 0) for a genuine witness."""
    z2 = w.z * w.z
    r1 = w.a * z2 - w.c * (w.x * w.x) - (w.c - w.a)
    r2 = w.b * z2 - w.c * (w.y * w.y) - (w.c - w.b)
    return r1, r2


@dataclass(frozen=True)
class ExtendScan:
    """extend_triple's extensions with the counts of the z-scan that found them.

    root_classes is the number of classes z0 of O_K/(c) with z0^2 = -1, or
    None when the whole half-ball was scanned instead; z_scanned counts the z (one
    of each pair {z, -z}) taken to the filters, and sieve_passed those of them
    that passed the quadratic-residue sieve to the exact tests (all of them
    when no prime was sieved by).
    """

    extensions: list[tuple[QuadInt, PellWitness]]
    root_classes: int | None
    z_scanned: int
    sieve_passed: int

    @property
    def accepted(self) -> int:
        return len(self.extensions)

    def to_json(self) -> dict:
        return {
            "root_classes": self.root_classes,
            "z_scanned": self.z_scanned,
            "sieve_passed": self.sieve_passed,
            "accepted": self.accepted,
        }


# The odd primes l that extend_scan may sieve by, smallest first.  A table of l*l
# entries costs about as much as l*l/2 exact tests of z, so a prime is sieved by
# only when the scan has at least _SIEVE_Z_PER_ENTRY z per entry of its table.
_SIEVE_PRIMES = (3, 5, 7, 11, 13)
_SIEVE_Z_PER_ENTRY = 4


@lru_cache(maxsize=None)
def _squares_mod(l: int, D: int) -> bytes:
    """The squares of O_K/l*O_K for an odd prime l and D reduced mod l, as a flat table.

    Entry x0 + l*x1 is 1 iff x0 + x1*s is a square of F_l[s]/(s^2 + D).  2 is a
    unit mod l, so (u + v*sqrt(-D))/2 is u/2 + (v/2)*s mod l, and that ring is
    O_K/l*O_K for either omega convention.  Cached: there are at most l
    tables per prime.
    """
    sq = bytearray(l * l)
    for b0 in range(l):
        for b1 in range(l):
            sq[(b0 * b0 - D * b1 * b1) % l + l * (2 * b0 * b1 % l)] = 1
    return bytes(sq)


def _sieve_lines(D: int, l: int, ha: tuple[int, int], hb: tuple[int, int], hc: tuple[int, int]) -> tuple[bytes, ...]:
    """lines[v % l][u % l] is 0 when z = (u + v*sqrt(-D))/2 makes a*d - 1 or b*d - 1 a non-square mod l.

    Here d = (z^2 + 1)*c^-1 mod l, and a, b, c are given by half-coordinates.
    c must be a unit mod l, that is l must not divide norm(c); then
    d = (z^2 + 1)/c reduces to that residue whenever it lies in O_K, and a
    square of O_K stays a square mod l, so a 0 rules z out.
    """
    h = (l + 1) // 2  # 1/2 mod l
    D %= l
    sq = _squares_mod(l, D)
    c0, c1 = hc[0] * h, hc[1] * h
    n_inv = pow(c0 * c0 + D * c1 * c1, -1, l)  # 1/norm(c)

    def over_c(hx: tuple[int, int]) -> tuple[int, int]:  # x/c = x*conj(c)/norm(c)
        x0, x1 = hx[0] * h, hx[1] * h
        return (x0 * c0 + D * x1 * c1) * n_inv % l, (x1 * c0 - x0 * c1) * n_inv % l

    (a0, a1), (b0, b1) = over_c(ha), over_c(hb)
    lines = []
    for v in range(l):
        z1 = v * h
        dz = D * z1 * z1 - 1
        line = bytearray(l)
        for u in range(l):
            z0 = u * h
            w0, w1 = z0 * z0 - dz, u * z1  # z^2 + 1; its s-coordinate 2*z0*z1 is u*z1, as 2*h = 1
            line[u] = sq[(a0 * w0 - D * a1 * w1 - 1) % l + l * ((a0 * w1 + a1 * w0) % l)] and sq[
                (b0 * w0 - D * b1 * w1 - 1) % l + l * ((b0 * w1 + b1 * w0) % l)
            ]
        lines.append(bytes(line))
    return tuple(lines)


def _sieve(D: int, ha: tuple[int, int], hb: tuple[int, int], hc: tuple[int, int], norm_c: int, z_count: int) -> list:
    """The tables (l, lines) that extend_scan tests its z_count z by, the strongest first.

    A prime of _SIEVE_PRIMES is used when it does not divide norm(c) and
    z_count is at least _SIEVE_Z_PER_ENTRY * l*l.  The tables are ordered by
    pass rate, the share of their entries that are 1, and one that passes
    every z is dropped.  With no table left, the modulus 1 and its one passing
    entry stand in, so the scan has one loop.
    """
    tables = []
    for l in _SIEVE_PRIMES:
        if norm_c % l and z_count >= _SIEVE_Z_PER_ENTRY * l * l:
            lines = _sieve_lines(D, l, ha, hb, hc)
            passing = sum(map(sum, lines))
            if passing < l * l:
                tables.append((passing / (l * l), l, lines))
    tables.sort()
    return [(l, lines) for _, l, lines in tables] or [(1, (b"\x01",))]


def _sieve_survivors(rows: list, sieve: list):
    """The (u, v) of the rows (v, range of u) that pass every table of sieve, row by row.

    A row's u step by a fixed amount, so us[j::l] holds the u of one class mod
    l: the first table is tested once per class of a row, the others once per
    z, each with the line of the row's v.
    """
    (l1, lines1), *rest = sieve
    for v, us in rows:
        line1 = lines1[v % l1]
        others = [(l, lines[v % l]) for l, lines in rest]
        for j, u0 in enumerate(us[:l1]):
            if line1[u0 % l1]:
                for u in us[j::l1]:
                    for l, line in others:
                        if not line[u % l]:
                            break
                    else:
                        yield u, v


def extend_scan(a: QuadInt, b: QuadInt, c: QuadInt, z_norm_bound: int) -> ExtendScan:
    """All extensions d = (z^2 + 1)/c of the D(-1) triple {a, b, c} from a z-scan, with its counts.

    Scans nonzero z with norm(z) <= z_norm_bound up to sign; keeps d when
    c | z^2 + 1, d is not in {0, a, b, c} and ad - 1, bd - 1 are squares.
    z and -z give the same d, and z^2 = cd - 1 fixes z up to sign, so each d
    comes from exactly one scanned z.  Results are ordered by the smaller
    (norm, x, y) of z and -z.

    c | z^2 + 1 exactly when z mod c is a root of z^2 = -1 in O_K/(c).  The
    roots z0 are found in one pass over the norm(c) representatives that the
    Hermite normal form of c*O_K gives (_ideal_hnf), and only the z = z0 + c*w
    with norm(z) <= z_norm_bound are scanned, row by row with integer square
    root bounds, in the half-plane u > 0, or u = 0 and v > 0 (_class_rows).
    When norm(c) exceeds the number of z in that half of the ball, the whole
    half-ball is scanned instead (one class, c*O_K replaced by O_K).  A unit
    c has a single class, so it scans the same half-ball.

    The scan runs on half-coordinates (see quad_ring): z^2 + 1 is divided by
    c with _div_half and ad - 1, bd - 1 are tested with _sqrt_half, all on
    plain ints; elements and Pell witnesses are built only for the hits.

    In front of those exact tests sits a quadratic-residue sieve (Cohen, A
    Course in Computational Algebraic Number Theory, sec. 1.7.2), a necessary
    condition only.  For an odd prime l that does not divide norm(c), c is a
    unit mod l, so d reduces to (z^2 + 1)*c^-1 mod l, and ad - 1, bd - 1 must
    be squares in O_K/l*O_K.  One table per prime, indexed by the
    half-coordinates of z mod l, holds that verdict, and a z that fails any
    table is dropped before _div_half.  Every z that passes takes the exact path unchanged, so the
    extensions, their order and the scan's counts other than sieve_passed do
    not depend on the primes.  A table of l*l entries is built only when the
    scan has at least _SIEVE_Z_PER_ENTRY * l*l z; the strongest table is
    tested first, once per class of u mod l of a row.
    """
    ring = a.ring
    if z_norm_bound < 0:
        raise ValueError("z_norm_bound must be >= 0")
    triple = make_tuple(ring, QuadInt(ring, -1, 0), [a, b, c])
    if not verify_tuple(triple).ok:
        raise ValueError("{a, b, c} is not a D(-1) triple")

    D, norm_c = ring.D, c.norm()
    # norm(c) <= the half-ball's z count; the running count stops once it gets there
    if any(n >= norm_c for n in accumulate(len(us) for _, us in _class_rows(D, z_norm_bound))):
        hnf = _ideal_hnf(c)
        classes = _sqrt_mod(QuadInt(ring, -1, 0), hnf)
        root_classes = len(classes)
    else:  # the root pass would visit more classes than the half-ball has z: scan that half-ball
        hnf, classes, root_classes = (1, 0, 1), [(0, 0)], None

    ha, hb, (cu, cv) = a.half_coords(), b.half_coords(), c.half_coords()
    rows = [row for z0 in classes for row in _class_rows(D, z_norm_bound, hnf, z0)]
    z_scanned = sum(len(us) for _, us in rows)
    excluded = {(0, 0), ha, hb, (cu, cv)}
    survivors = []
    sieve_passed = 0
    for u, v in _sieve_survivors(rows, _sieve(D, ha, hb, (cu, cv), norm_c, z_scanned)):
        sieve_passed += 1
        # z^2 + 1, with 1 = (2 + 0*sqrt(-D))/2
        d = _div_half(D, (u * u - D * v * v) // 2 + 2, u * v, cu, cv)
        if d is None or d in excluded:
            continue
        P, Q = _mul_half(D, ha, d)  # ad - 1 = (P - 2 + Q*s)/2
        if _sqrt_half(D, P - 2, Q) is None:
            continue
        P, Q = _mul_half(D, hb, d)
        if _sqrt_half(D, P - 2, Q) is None:
            continue
        z = _from_half_unchecked(ring, u, v)
        survivors.append((min(elem_key(z), elem_key(-z)), _from_half_unchecked(ring, *d)))
    survivors.sort(key=lambda s: s[0])
    extensions = [(d, build_pell_witness(a, b, c, d)) for _, d in survivors]
    return ExtendScan(extensions, root_classes, z_scanned, sieve_passed)


def extend_triple(a: QuadInt, b: QuadInt, c: QuadInt, z_norm_bound: int) -> list[tuple[QuadInt, PellWitness]]:
    """The extensions of extend_scan."""
    return extend_scan(a, b, c, z_norm_bound).extensions


@dataclass(slots=True)
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
    witnesses from _sqrt_half lose no generality.  Everything up to the
    returned ExtensionPair runs on half-coordinates, each product formed
    inline as _mul_half forms it; a doubled product 2pq is left unhalved,
    since the halving is exact in O_K.  ab, ad and bd are formed once, for
    the witnesses and for the identity check.  The pairs are taken in the
    order (a, b), (a, d), (b, d), and a pair from two rings or without a
    witness raises as build_pell_witness does.
    """
    ring = a.ring
    D = ring.D
    _one_ring(ring, b)
    (au, av), (bu, bv) = a.half_coords(), b.half_coords()
    ab = (au * bu - D * av * bv) // 2, (au * bv + av * bu) // 2
    ru, rv = _witness_half(D, ab, a, b, "r")
    _one_ring(ring, d)
    du, dv = d.half_coords()
    ad = (au * du - D * av * dv) // 2, (au * dv + av * du) // 2
    xu, xv = _witness_half(D, ad, a, d, "x")
    bd = (bu * du - D * bv * dv) // 2, (bu * dv + bv * du) // 2
    yu, yv = _witness_half(D, bd, b, d, "y")
    su, sv = au + bu + du, av + bv + dv  # s = a + b + d
    eu, ev = su - (ab[0] * du - D * ab[1] * dv), sv - (ab[0] * dv + ab[1] * du)  # e = s - 2abd
    rxu, rxv = (ru * xu - D * rv * xv) // 2, (ru * xv + rv * xu) // 2
    fu, fv = rxu * yu - D * rxv * yv, rxu * yv + rxv * yu  # f = 2rxy
    if eu * fu + D * ev * fv < 0:  # = norm(e + f) - norm(e - f), exactly
        fu, fv = -fu, -fv  # swaps c_+ and c_-
    cpu, cpv, cmu, cmv = eu + fu, ev + fv, eu - fu, ev - fv
    # c_+ c_- = a^2 + b^2 + d^2 - 2ab - 2ad - 2bd + 4 = s^2 - 4(ab + ad + bd) + 4,
    # with 4 = (8 + 0*s)/2
    if ((cpu * cmu - D * cpv * cmv) // 2, (cpu * cmv + cpv * cmu) // 2) != (
        (su * su - D * sv * sv) // 2 - 4 * (ab[0] + ad[0] + bd[0]) + 8,
        su * sv - 4 * (ab[1] + ad[1] + bd[1]),
    ):
        raise AssertionError("c_plus * c_minus identity violated")
    return ExtensionPair(
        _from_half_unchecked(ring, cpu, cpv),
        _from_half_unchecked(ring, cmu, cmv),
        a,
        b,
        d,
        _from_half_unchecked(ring, ru, rv),
        _from_half_unchecked(ring, xu, xv),
        _from_half_unchecked(ring, yu, yv),
    )


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
