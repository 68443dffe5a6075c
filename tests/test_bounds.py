from __future__ import annotations

import sys
import threading
from fractions import Fraction
from random import Random

import mpmath
import pytest
from mpmath import iv

from diotuples.quad_ring import QuadInt, make_ring, norm
from diotuples.tuples import build_pell_witness, pell_residuals
from diotuples.bounds import (
    GROWTH,
    HypothesisFailure,
    PrecReal,
    chain_verify,
    check_gap_hypotheses,
    gap_lemma_checks,
    jz_constants,
    lower_bound_d,
    theta_defect,
    threshold_a22,
    upper_bound_d,
)
from helpers import chain_quadruples_zi

R1 = make_ring(1)

THRESHOLD_GOLDEN = 17012676  # pinned after the first exact computation


def q1(x, y=0):
    return QuadInt(R1, x, y)


class TestPrecReal:
    def test_minimum_precision(self):
        with pytest.raises(ValueError):
            PrecReal(iv.mpf(1), 32)

    def test_exact_int(self):
        a = PrecReal(iv.mpf(7), 128)
        assert a.max_rel_error == 0.0
        assert float(a) == 7.0


class TestJZConstants:
    def test_worked_example(self):
        c = jz_constants(q1(1), q1(-1), q1(100))
        assert c.M_sq == 1
        # T = 100 and M = 1 have exact magnitudes, so l, L, P are rational here
        assert float(c.l) == pytest.approx(2700 / 6336, rel=1e-25)
        assert float(c.L) == pytest.approx(27 * 99**2 / 64, rel=1e-25)
        assert float(c.P) == pytest.approx(16 * 4 * 203, rel=1e-25)
        # independent high-precision evaluation of lambda and c1
        with mpmath.workprec(400):
            L = mpmath.mpf(27 * 99**2) / 64
            P = mpmath.mpf(16 * 4 * 203)
            lam = 1 + mpmath.log(P) / mpmath.log(L)
            p = mpmath.sqrt(mpmath.mpf(203) / 198)
            c1 = 1 / (4 * p * P)  # max(1, 2l) = 1 since l < 1/2
            assert float(c.lam) == pytest.approx(float(lam), rel=1e-25)
            assert float(c.c1) == pytest.approx(float(c1), rel=1e-25)
        assert c.lam.max_rel_error < 2.0**-64
        assert float(c.c1) > 0

    def test_large_l_branch(self):
        # T = 3 keeps L > 1 while 2l > 1, exercising the max(1, 2l)^(lambda-1) factor
        c = jz_constants(q1(1), q1(-1), q1(3))
        assert float(c.l) > 0.5
        with mpmath.workprec(300):
            L = mpmath.mpf(27 * 4) / 64
            P = mpmath.mpf(16 * 4 * 9)
            lam = 1 + mpmath.log(P) / mpmath.log(L)
            l = mpmath.mpf(27 * 3) / (64 * 2)
            c1 = 1 / (4 * mpmath.sqrt(mpmath.mpf(9) / 4) * P * (2 * l) ** (lam - 1))
        assert float(c.lam) == pytest.approx(float(lam), rel=1e-25)
        assert float(c.c1) == pytest.approx(float(c1), rel=1e-25)
        assert c.c1.max_rel_error < 2.0**-64

    def test_rejects_T_not_dominating(self):
        with pytest.raises(HypothesisFailure, match=r"\|T\| <= M"):
            jz_constants(q1(1), q1(-5), q1(3))

    def test_rejects_small_L(self):
        # L = 27*(4-3)^2/(16*9*9*36) << 1
        with pytest.raises(HypothesisFailure, match="L <= 1"):
            jz_constants(q1(3), q1(-3), q1(4))

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            jz_constants(q1(1), q1(1), q1(100))
        with pytest.raises(ValueError):
            jz_constants(q1(0), q1(1), q1(100))

    def test_gap_shape_small_l(self):
        # (a1, a2, T) = (-b, -a, abc) has l < 1/2 as soon as |ac| >= 22
        for a, b, c in ((q1(2), q1(22), q1(23)), (q1(3), q1(25), q1(40))):
            consts = jz_constants(-b, -a, a * b * c)
            assert float(consts.l) < 0.5
            assert float(consts.p) <= float(mpmath.sqrt(mpmath.mpf(47) / 42)) + 1e-18


JZ_NAMES = ("L", "l", "p", "P", "lam", "c1")
# (a1, a2, T) = (-b, -a, abc) for a few (a, b, c) of the gap-lemma shape
JZ_INPUTS = [(q1(-b), q1(-a), q1(a * b * c)) for a, b, c in ((2, 22, 10**30 + 1), (3, 25, 10**31), (2, 40, 10**40))]


class TestNoGlobalPrecision:
    @staticmethod
    def outputs() -> list:
        consts = [getattr(jz_constants(*x, 256), name) for x in JZ_INPUTS for name in JZ_NAMES]
        tc = theta_defect(build_pell_witness(q1(2), q1(5), q1(-24), q1(925)))
        values = consts + [tc.defect1, tc.defect2, tc.middle1, tc.middle2_symmetric, tc.outer]
        return [(v.enclosure._mpi_, str(v), v.max_rel_error) for v in values]

    def test_outputs_ignore_global_precision(self):
        saved = iv.prec, mpmath.mp.prec
        assert saved == (53, 53)
        expected = self.outputs()
        try:
            iv.prec, mpmath.mp.prec = 30, 300
            got = self.outputs()
            assert (iv.prec, mpmath.mp.prec) == (30, 300)
        finally:
            iv.prec, mpmath.mp.prec = saved
        assert got == expected

    def test_threads_at_two_precisions_match_serial(self):
        # threads at 128 and at 1024 bits, more than the cores, switching often: none sees another's precision
        def run(bits: int) -> list:
            consts = [jz_constants(*x, bits) for x in JZ_INPUTS]
            return [tuple(getattr(c, name).enclosure._mpi_ for name in JZ_NAMES) for c in consts]

        precisions = (128, 1024, 128, 1024)
        serial = {bits: run(bits) for bits in set(precisions)}
        threaded = [[] for _ in precisions]

        def loop(i: int) -> None:
            for _ in range(10):
                threaded[i].append(run(precisions[i]))

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(precisions))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert threaded == [[serial[bits]] * 10 for bits in precisions]


class TestGapHypotheses:
    def test_boundary_b(self):
        a = q1(2)
        b = q1(22)  # norm 484: |b| >= 22 holds with equality
        c = q1(10**30)
        rep = check_gap_hypotheses(a, b, c)
        clauses = {cl.name: cl.holds for cl in rep.clauses}
        assert clauses["|b| >= 22"]
        assert clauses["|a| >= 2"]

    def test_small_triple_fails_growth(self):
        rep = check_gap_hypotheses(q1(1), q1(2), q1(5))
        clauses = {cl.name: cl.holds for cl in rep.clauses}
        assert not clauses["|c| > |b|^16"]
        assert not rep.all_hold
        assert "|c| > |b|^16" in rep.failing()

    def test_chain_instance_ratio(self):
        # magnitudes 12 and 35+: |b| >= (3/2)|a| holds
        rep = check_gap_hypotheses(q1(12), q1(36), q1(2))
        clauses = {cl.name: cl.holds for cl in rep.clauses}
        assert clauses["|b| >= (3/2)|a|"]

    def test_sampled_constant_bounds(self):
        rng = Random(31)
        for _ in range(5):
            na = rng.randrange(2, 8)
            a = q1(na)
            b = q1(rng.randrange(max(22, 2 * na), 60))
            c = q1(norm(b) ** 8 + rng.randrange(1, 1000))
            assert check_gap_hypotheses(a, b, c).all_hold
            checks = gap_lemma_checks(a, b, c)
            for name, (holds, margin, bits) in checks.items():
                assert holds, name
                assert margin > 2.0**-64
                assert bits <= 1024


class TestDBounds:
    def test_upper(self):
        assert upper_bound_d(q1(1)) == 3956**20
        assert upper_bound_d(q1(2)) == 3956**20 * 4**24
        assert upper_bound_d(q1(3)) > upper_bound_d(q1(2))

    def test_lower(self):
        # |a| = 12, |b| = 15: bound (12*15*13/66)^2 = (2340/66)^2 with 2340/66 > 35
        got = lower_bound_d(q1(12), q1(15))
        assert got == Fraction(144 * 225 * 169, 4356) == Fraction(2340, 66) ** 2
        assert got > Fraction(35) ** 2
        assert lower_bound_d(q1(10), q1(10)) == Fraction(100 * 100 * 169, 4356)


class TestThetaDefect:
    def test_example_quadruple_identities(self):
        w = build_pell_witness(q1(1), q1(2), q1(5), q1(-24))
        tc = theta_defect(w)
        assert w.a * (w.z * w.z) - w.c * (w.x * w.x) == q1(4)  # = c - a exactly
        assert tc.identity_rel_diff < 2.0**-96
        clauses = {cl.name: cl.holds for cl in tc.hypotheses.clauses}
        assert not clauses["|c| > 4|b|"]  # 5 < 8: lemma hypotheses fail here
        # the sign-symmetric middle bound holds regardless of the hypotheses
        assert float(tc.defect1) <= float(tc.middle1)
        assert float(tc.defect2) <= float(tc.middle2_symmetric)

    def test_hypothesis_satisfying_witness(self):
        w = build_pell_witness(q1(2), q1(5), q1(-24), q1(925))
        tc = theta_defect(w)
        assert tc.hypotheses.all_hold
        assert float(tc.defect1) <= float(tc.middle1) <= float(tc.outer)
        assert float(tc.defect2) <= float(tc.middle2_symmetric)
        assert float(tc.defect2) <= float(tc.outer)
        # proof-side estimate: sqrt(1 + 1/|ac|) < 21/20 once |c| > 4|a|
        n_ac = norm(w.a) * norm(w.c)
        with mpmath.workprec(80):
            assert mpmath.sqrt(1 + 1 / mpmath.sqrt(n_ac)) < mpmath.mpf(21) / 20

    def test_sampled_chain_witnesses(self):
        quads = chain_quadruples_zi(R1)
        assert len(quads) >= 6
        hyp_satisfied = 0
        for a, b, c, d in quads:
            w = build_pell_witness(a, b, c, d)
            r1, r2 = pell_residuals(w)
            assert r1.is_zero() and r2.is_zero()
            tc = theta_defect(w)
            assert float(tc.defect1) <= float(tc.middle1) * (1 + 1e-20)
            assert float(tc.defect2) <= float(tc.middle2_symmetric) * (1 + 1e-20)
            if tc.hypotheses.all_hold:
                hyp_satisfied += 1
                assert float(tc.middle1) <= float(tc.outer)
        assert hyp_satisfied >= 2

    def test_zero_rejection(self):
        w = build_pell_witness(q1(1), q1(2), q1(5), q1(-24))
        from diotuples.tuples import PellWitness

        bad = PellWitness(w.a, w.b, w.c, w.d, w.r, w.s, w.t, w.x, w.y, q1(0))
        with pytest.raises(ValueError):
            theta_defect(bad)

    def test_unit_z_flagged(self):
        # |z| <= 1 invalidates the |z|^0.2 growth step and must be flagged
        w = build_pell_witness(q1(1), q1(2), q1(5), q1(-24))
        assert theta_defect(w).z_unit_flag is False
        from diotuples.tuples import PellWitness

        unit_z = PellWitness(w.a, w.b, w.c, w.d, w.r, w.s, w.t, w.x, w.y, q1(0, 1))
        assert theta_defect(unit_z).z_unit_flag is True


class TestChainVerify:
    def test_confirmed(self):
        trace = chain_verify()
        assert trace.confirmed
        assert len(trace.steps) == 6
        assert all(s.holds for s in trace.steps)

    def test_named_comparisons(self):
        steps = chain_verify().steps
        assert steps[0].lhs == 2340 and steps[0].rhs == 35 * 66
        assert steps[3].lhs == 35**32 * 13**31 and steps[3].rhs == 10**27 * 66**31
        assert steps[4].lhs == (18 * 10**6) ** 8 * 13**31
        assert steps[4].rhs == 66**31 * 3956**10

    def test_cascade_algebra(self):
        x = Fraction(2340, 66)
        cascaded = x
        for _ in range(5):
            cascaded = cascaded * cascaded * GROWTH
        assert cascaded == x**32 * GROWTH**31

    def test_json(self):
        payload = chain_verify().to_json()
        assert payload["confirmed"] is True
        assert len(payload["steps"]) == 6
        for s in payload["steps"]:
            assert s["holds"] is True
            # operands serialize as exact decimal (or fraction) strings
            for part in (s["lhs"], s["rhs"], s["margin"]):
                for piece in str(part).split("/"):
                    int(piece)

    def test_table_format(self):
        text = chain_verify().format_table()
        assert "CONFIRMED" in text
        assert "FAIL" not in text


class TestThreshold:
    def test_golden_value(self):
        n = threshold_a22()
        assert n == THRESHOLD_GOLDEN

    def test_minimality_and_sufficiency(self):
        n = threshold_a22()
        rhs = 66**31 * 3956**10
        assert n**8 * 13**31 >= rhs
        assert (n - 1) ** 8 * 13**31 < rhs
        assert n <= 18 * 10**6

    def test_cascade_exceeds_upper_bound_at_threshold(self):
        # squared-form consistency: from N on, five lower-bound squarings beat
        # the upper bound 3956^10 * |c|^24 (both sides squared)
        for N in (threshold_a22(), threshold_a22() + 1, 10**27):
            nsq = N * N  # squared magnitude of the starting element
            lower = Fraction(nsq) ** 32 * Fraction(169, 4356) ** 31
            upper = Fraction(3956**20) * Fraction(nsq) ** 24
            assert lower >= upper
            if N > threshold_a22():
                assert lower > upper
