"""Exceptional-class labels, image forms, parametrizations, flattening."""

from fractions import Fraction

import pytest

from crsing import (
    ClassLabel,
    CRImageForm,
    GaussRational,
    I,
    LabelKind,
    Manifold,
    ONE,
    Poly,
    Quadric,
    ZERO,
    check_first_integral,
    classify_cr_image,
    classify_quadric,
    flatten_from_first_integral,
    levi_flat_image_param,
    normal_form_quadric,
    normalize_rank1,
    parse_poly,
    rank_condition,
    transform,
)
from crsing.errors import (
    FirstIntegralError,
    NotCR,
    RankNotOne,
    RankTooLow,
)
from crsing.linalg import rank


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


class TestNormalize:
    def test_normalization_concentrates_first_column(self):
        q = Quadric(2, A=[[ZERO, ONE], [ZERO, ZERO]], B=[[ONE, ZERO], [ZERO, ZERO]])
        T, qn = normalize_rank1(q)
        assert rank(T) == 2
        stacked = qn.stacked()
        for row in stacked:
            assert all(c == ZERO for c in row[1:])

    def test_requires_rank_one(self):
        with pytest.raises(RankNotOne):
            normalize_rank1(Quadric(2, A=[[ONE, ZERO], [ZERO, ONE]]))
        with pytest.raises(RankNotOne):
            normalize_rank1(Quadric(2))


class TestClassify:
    def test_normal_forms_classify_to_themselves(self):
        labels = [
            ClassLabel(LabelKind.CASE1),
            ClassLabel(LabelKind.CASE2),
            ClassLabel(LabelKind.CASE3, Fraction(9, 4)),
            ClassLabel(LabelKind.CASE4),
        ]
        for label in labels:
            q = normal_form_quadric(label, 2)
            assert classify_quadric(q) == label

    def test_case3_modulus_exact(self):
        q = Quadric(2, A=[[g(2), ZERO], [ZERO, ZERO]], B=[[g(3), ZERO], [ZERO, ZERO]])
        label = classify_quadric(q)
        assert label.kind is LabelKind.CASE3
        assert label.a_squared == Fraction(9, 4)

    def test_case3_modulus_zero(self):
        q = Quadric(2, A=[[ONE, ZERO], [ZERO, ZERO]])
        label = classify_quadric(q)
        assert label.kind is LabelKind.CASE3
        assert label.a_squared == 0

    def test_rank_zero_and_non_exceptional(self):
        assert classify_quadric(Quadric(2)).kind is LabelKind.RANK_ZERO
        q2 = Quadric(2, A=[[ONE, ZERO], [ZERO, ONE]])
        assert classify_quadric(q2).kind is LabelKind.NON_EXCEPTIONAL

    def test_invariance_under_transform(self):
        base = normal_form_quadric(ClassLabel(LabelKind.CASE1), 2)
        T = [[g(2), g(1, 1)], [ZERO, g("1/2")]]
        assert classify_quadric(transform(base, T)) == classify_quadric(base)

    def test_holomorphic_part_ignored(self):
        base = normal_form_quadric(ClassLabel(LabelKind.CASE2), 2)
        with_c = Quadric(2, base.A, base.B, [[ONE, I], [I, g(3)]])
        assert classify_quadric(with_c) == classify_quadric(base)

    def test_case3_normal_form_needs_square(self):
        with pytest.raises(ValueError):
            normal_form_quadric(ClassLabel(LabelKind.CASE3, Fraction(2)), 2)


class TestCRImage:
    def test_forms_follow_labels(self):
        m = Manifold(Quadric(2, A=[[ZERO, ONE], [ZERO, ZERO]]))
        assert classify_cr_image(m).form is CRImageForm.FORM2
        m5 = Manifold(Quadric(2), parse_poly("zb1^3", 2))
        assert classify_cr_image(m5).form is CRImageForm.FORM5

    def test_not_applicable_for_rank_two(self):
        m = Manifold(Quadric(2, A=[[ONE, ZERO], [ZERO, ONE]]))
        assert classify_cr_image(m).form is CRImageForm.NOT_APPLICABLE

    def test_squared_graph_example(self):
        # w = (zb2 + i|z1|^2 + |z1|^4)^2 has quadratic part zb2^2
        inner = parse_poly("zb2 + i*z1*zb1 + z1^2*zb1^2", 2)
        e_part = inner * inner - parse_poly("zb2^2", 2)
        m = Manifold(Quadric(2, B=[[ZERO, ZERO], [ZERO, ONE]]), e_part)
        assert classify_cr_image(m).form is CRImageForm.FORM4


class TestParametrization:
    def test_all_cases_verified(self):
        labels = [
            ClassLabel(LabelKind.CASE1),
            ClassLabel(LabelKind.CASE2),
            ClassLabel(LabelKind.CASE3, Fraction(0)),
            ClassLabel(LabelKind.CASE3, Fraction(9, 4)),
            ClassLabel(LabelKind.CASE4),
        ]
        for label in labels:
            par = levi_flat_image_param(label, 2)
            assert par.verified
            assert len(par.components) == 3  # z1, z2, w

    def test_case4_w_component(self):
        par = levi_flat_image_param(ClassLabel(LabelKind.CASE4), 2)
        # w = (s - i t)^2 with z1 = s, z2 = t in the parameter ring
        s = Poly.variable("z1", 3)
        t = Poly.variable("z2", 3)
        assert par.components[-1] == (s - I * t) ** 2


class TestFirstIntegral:
    def flat_manifold(self) -> Manifold:
        return Manifold(Quadric(2, A=[[ONE, ZERO], [ZERO, ONE]]))

    def test_defining_function_is_first_integral(self):
        m = self.flat_manifold()
        report = check_first_integral(m, m.quadric.q_poly(), 8)
        assert report.real_valued
        assert report.cr_to_order
        assert report.quadratic_matches
        assert report.alpha == ONE
        assert report.ok

    def test_non_real_candidate(self):
        m = self.flat_manifold()
        report = check_first_integral(m, parse_poly("z1", 2), 8)
        assert not report.real_valued
        assert not report.ok

    def test_wrong_quadratic_part(self):
        m = self.flat_manifold()
        report = check_first_integral(m, parse_poly("z1*zb1", 2), 8)
        assert report.quadratic_matches is False

    def test_normalization_required(self):
        # Q = zb1 z2 + zb2 z1 is not real-valued as written
        q = Quadric(2, A=[[ZERO, ONE], [ONE, ZERO]], B=[[ONE, ZERO], [ZERO, ONE]])
        m = Manifold(q)
        assert rank_condition(q) >= 2
        report = check_first_integral(m, parse_poly("z1*zb1", 2), 8)
        assert report.normalization_required
        assert report.quadratic_matches is None

    def test_rank_gate(self):
        m = Manifold(Quadric(2, A=[[ZERO, ONE], [ZERO, ZERO]]))
        with pytest.raises(RankTooLow):
            check_first_integral(m, parse_poly("z1*zb1", 2), 8)


class TestFlattening:
    def test_flattens_defining_function(self):
        m = Manifold(Quadric(2, A=[[ONE, ZERO], [ZERO, ONE]]))
        res = flatten_from_first_integral(m, m.quadric.q_poly(), 8)
        assert res.F == parse_poly("w", 2)
        assert res.residual_order is None

    def test_rejects_non_real(self):
        m = Manifold(Quadric(2, A=[[ONE, ZERO], [ZERO, ONE]]))
        with pytest.raises(FirstIntegralError):
            flatten_from_first_integral(m, parse_poly("z1", 2), 8)

    def test_rejects_non_cr(self):
        m = Manifold(Quadric(2, A=[[ONE, ZERO], [ZERO, ONE]]))
        g_bad = parse_poly("z1*zb1 + z2*zb2 + zb1^3 + z1^3", 2)
        with pytest.raises(NotCR):
            flatten_from_first_integral(m, g_bad, 8)
