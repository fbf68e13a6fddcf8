"""Chart constructors: Gram pairs, ideal families, substitution, components."""

from fractions import Fraction

import pytest

from olmcheck.charts import Chart, gram_matrices, xname
from olmcheck.errors import InvalidChart, NotApplicable
from olmcheck.fields import QQ, PrimeField
from olmcheck.ideals import Ideal, krull_dimension, subring_part
from olmcheck.matrices import constant_matrix
from olmcheck.orders import GRLEX
from olmcheck.rings import Ring, cast
from oracles import antidiag, b2_j_b1t_entry, constant_term, s_polynomial
from oracles import det as oracle_det

ALL_CASES = [(6, 2), (8, 4), (5, 3), (7, 3), (6, 3), (5, 2), (6, 4), (8, 3), (7, 4)]


def test_invalid_charts_rejected():
    for d, l in [(4, 2), (6, 0), (6, 1), (6, 5), (5, 4), (3, 2)]:
        with pytest.raises(InvalidChart):
            gram_matrices(d, l)
        with pytest.raises(InvalidChart):
            Chart(d, l)


def test_gram_split_even():
    G0, G1 = gram_matrices(6, 2)
    anti = [(G0[i][5 - i], G1[i][5 - i]) for i in range(6)]
    assert anti == [(1, 0), (1, 0), (0, 1), (0, 1), (1, 0), (1, 0)]


def test_gram_quasisplit_odd():
    G0, G1 = gram_matrices(5, 3)
    anti = [(G0[i][4 - i], G1[i][4 - i]) for i in range(5)]
    assert anti == [(1, 0), (0, 1), (0, 1), (0, 1), (1, 0)]


def test_gram_quasisplit_even_has_diagonal_entries():
    G0, G1 = gram_matrices(6, 3)
    anti = [(G0[i][5 - i], G1[i][5 - i]) for i in range(6)]
    assert anti == [(1, 0), (0, 1), (0, 0), (0, 0), (0, 1), (1, 0)]
    assert G1[2][2] == 1 and G0[2][2] == 0     # <e_3, e_3> = pi
    assert G0[3][3] == 1 and G1[3][3] == 0     # <e_4, e_4> = 1


def test_gram_symmetric_and_det_valuation():
    U = Ring(["u"], QQ, GRLEX)
    u = U.var("u")
    for d, l in ALL_CASES:
        G0, G1 = gram_matrices(d, l)
        M = constant_matrix(U, G0) + constant_matrix(U, G1).scale(u)
        for i in range(d):
            for j in range(d):
                assert M[i, j] == M[j, i]
        det = oracle_det(M)
        assert not det.is_zero()
        valuation = min(U.mono_degree(m) for m, _ in det.terms())
        assert valuation == l


def test_gram_parts_have_disjoint_support():
    # the unit part and the pi part of the form never share a matrix slot
    for d, l in ALL_CASES:
        G0, G1 = gram_matrices(d, l)
        for i in range(d):
            for j in range(d):
                assert not (G0[i][j] and G1[i][j])
        # row supports are disjoint too, so G0 * G1^t vanishes
        prod = [[sum(G0[i][k] * G1[j][k] for k in range(d)) for j in range(d)]
                for i in range(d)]
        assert all(v == 0 for row in prod for v in row)


def test_band_variable_count_is_l_times_d_minus_l():
    for d, l in [(d, l) for d in range(5, 15) for l in range(2, d - 1)]:
        c = Chart(d, l)
        assert len(c.rows) == l
        assert len(c.cols) == d - l
        assert len(c.reduced_ring.names) == l * (d - l) + 1
        # the band rows are the row support of G1: the middle l rows for
        # same parity, the middle l+1 less the center row n+1 otherwise
        m = l if d % 2 == l % 2 else l + 1
        lo = (d - m) // 2 + 1
        band = [i for i in range(lo, lo + m) if m == l or i != d // 2 + 1]
        G1 = gram_matrices(d, l)[1]
        support = [i for i in range(1, d + 1) if any(G1[i - 1])]
        assert support == c.rows == band, (d, l)


def test_band_rows_opposite_parity_skip_center():
    c = Chart(5, 2)
    assert c.rows == [2, 4]
    assert c.cols == [1, 3, 5]
    c = Chart(6, 3)
    assert c.rows == [2, 3, 5]
    assert c.cols == [1, 4, 6]


def test_naive_raw_count():
    c = Chart(6, 2)
    raw = c.naive_generators()
    # entries of X^2, all 2x2 minors, and the two bilinear relations
    assert len(raw) == 36 + 225 + 36 + 36


def test_naive_entry_example():
    c = Chart(6, 2)
    raw = c.naive_generators()
    g = raw[36 + 225 + 36]  # entry (1,1) of X^t S1 X + 2(S0 + pi S1)X
    assert g == c.ring.parse("2*x[3][1]*x[4][1] + 2*x[6][1]")


@pytest.mark.parametrize("d, l, size", [(5, 3, 23), (6, 2, 37), (6, 4, 35),
                                        (7, 3, 61)])
def test_block_order_solves_every_non_band_variable(d, l, size):
    # with the non-band block first, every non-band variable leads a basis
    # element; the basis sizes are those of the block-order bases
    c = Chart(d, l, PrimeField(32003))
    gb = c.full_ideal().groebner()
    leads = {c.ring.mono_str(m) for m in gb.lead_monomials()
             if c.ring.mono_degree(m) == 1}
    assert set(c.ring.names) - set(c.reduced_ring.names) <= leads
    assert len(gb) == size


def test_all_generators_vanish_at_worst_point():
    for d, l in [(6, 2), (5, 3), (6, 3), (5, 2)]:
        c = Chart(d, l)
        gens = list(c.full_ideal().gens) + list(c.reduced_ideal().gens)
        if c.same_parity:
            gens += list(c.intermediate_ideal().gens)
        for g in gens:
            assert constant_term(g) == 0


def test_additional_ideal_examples():
    c = Chart(6, 2)
    add = c.additional_generators()
    assert str(add[1]) == "x[3][3] + x[4][4] + 2*pi"
    # entry (1,1) of B2 J2 B1^t - A J2 against the index-formula oracle
    ring = c.ring
    oracle = ring.zero()
    for (i1, j1), (i2, j2) in b2_j_b1t_entry(6, 2, 3, 3):
        oracle = oracle + ring.var(xname(i1, j1)) * ring.var(xname(i2, j2))
    oracle = oracle - ring.var(xname(3, 4))      # (A J2)[1][1] = x[3][4]
    forms = {tuple(g.monic().terms()) for g in add}
    assert tuple(oracle.monic().terms()) in forms


def test_intermediate_family_counts_and_containment():
    c = Chart(6, 2)
    raw = c.intermediate_generators()
    assert len(raw) == 225 + 1 + 1 + 4 + 36
    inter = {tuple(g.monic().terms()) for g in c.intermediate_ideal().gens}
    full = {tuple(g.monic().terms()) for g in c.full_ideal().gens}
    assert inter <= full  # every intermediate generator is a chart generator


def test_reduced_ideal_six_two():
    c = Chart(6, 2)
    red = c.reduced_ideal()
    assert red.ring.names == ("x[3][1]", "x[3][2]", "x[3][5]", "x[3][6]",
                              "x[4][1]", "x[4][2]", "x[4][5]", "x[4][6]", "pi")
    minors = [g for g in red.gens if "pi" not in str(g)]
    assert len(minors) == 6
    trace = [g for g in red.gens if "pi" in str(g)]
    assert len(trace) == 1
    # the matrix trace carries each antidiagonal pair twice; reduced by the
    # minors it is twice the pair sum, so the hypersurface is S + pi after
    # scaling, never S + 2 pi
    t = trace[0]
    rr = red.ring
    pair_sum = rr.parse("x[3][1]*x[4][6] + x[3][2]*x[4][5]")
    difference = t - pair_sum.scale(2) - rr.var("pi").scale(2)
    from olmcheck.ideals import Ideal
    assert Ideal(rr, minors).contains(difference)


def test_reduced_minor_count_formula():
    from math import comb
    for d, l in ALL_CASES:
        c = Chart(d, l)
        red = c.reduced_ideal()
        assert len(red.gens) == comb(l, 2) * comb(d - l, 2) + 1


def test_opposite_parity_add_generators_mask_the_center():
    # H masks the center row and column: Tr(HAH) misses x[4][4] for (6,3)
    c = Chart(6, 3)
    add = c.additional_generators()
    assert str(add[1]) == "x[2][2] + x[3][3] + x[5][5] + 2*pi"
    # and the masked fourth family never touches center-row variables
    for g in add[2:]:
        assert "x[4][" not in str(g)


def test_opposite_parity_traces():
    c = Chart(5, 2)
    t = c.trace_quadric(c.reduced_ring)
    rr = c.reduced_ring
    expect = rr.parse("x[2][5]*x[4][1] + x[4][5]*x[2][1] + x[2][3]*x[4][3]")
    assert t == expect
    c = Chart(6, 3)
    t = c.trace_quadric(c.reduced_ring)
    rr = c.reduced_ring
    expect = rr.parse("x[2][6]*x[5][1] + x[5][6]*x[2][1] + x[2][4]*x[5][4]"
                      " + x[3][1]*x[3][6] + 1/2*x[3][4]^2")
    assert t == expect


def test_trace_factors_on_rank_one_matrices():
    """On x[i][j] -> u_i * w_j the trace quadric is exactly 2 q_u q_w.

    q_u pairs the band rows a with d+1-a (self-paired rows weighted 1/2)
    and q_w does the same on the columns; this is the factorization that
    drives the component decomposition, checked here for every chart shape.
    """
    for d, l in ALL_CASES:
        c = Chart(d, l)
        names = ["u%d" % i for i in c.rows] + ["w%d" % j for j in c.cols]
        T = Ring(names, QQ, GRLEX)
        images = {xname(i, j): T.var("u%d" % i) * T.var("w%d" % j)
                  for i in c.rows for j in c.cols}
        t_img = c.trace_quadric(c.fiber_ring).substitute(images, T)
        refl = lambda k: d + 1 - k
        rows = set(c.rows)
        cols = set(c.cols)
        q_u = T.zero()
        for a in c.rows:
            if refl(a) in rows and a < refl(a):
                q_u = q_u + T.var("u%d" % a) * T.var("u%d" % refl(a))
            elif refl(a) == a or refl(a) not in rows:
                q_u = q_u + (T.var("u%d" % a) ** 2).scale(Fraction(1, 2))
        q_w = T.zero()
        for s in c.cols:
            if refl(s) in cols and s < refl(s):
                q_w = q_w + T.var("w%d" % s) * T.var("w%d" % refl(s))
            elif refl(s) == s or refl(s) not in cols:
                q_w = q_w + (T.var("w%d" % s) ** 2).scale(Fraction(1, 2))
        assert t_img == (q_u * q_w).scale(2), (d, l)


def test_reduced_basis_s_pairs_on_chart_data():
    c = Chart(6, 2)
    gb = c.reduced_ideal().groebner()
    polys = list(gb)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            assert gb.normal_form(s_polynomial(polys[i], polys[j])).is_zero()


def test_substitution_examples():
    c = Chart(6, 2)
    phi = c.substitution_map()
    rr = c.reduced_ring
    assert phi["x[1][1]"] == rr.parse("-1/2*x[3][1]*x[4][6] - 1/2*x[3][6]*x[4][1]")
    assert phi["x[3][1]"] == rr.var("x[3][1]")
    # A-block image against the independent index formula for B2 J B1^t
    oracle = rr.zero()
    for (i1, j1), (i2, j2) in b2_j_b1t_entry(6, 2, 3, 4):
        oracle = oracle + rr.var(xname(i1, j1)) * rr.var(xname(i2, j2))
    assert phi["x[3][3]"] == oracle  # (B2 J B1^t J)[3][3] = (B2 J B1^t)[3][4]


def test_substitution_kills_solve_relations_and_band_family():
    # phi solves the E and O blocks and sends A to B2 J B1^t J, so every solve
    # relation and every entry of B2 Je B1^t - A Jm maps to exactly zero
    for d, l in [(5, 3), (6, 2), (6, 4), (7, 3), (7, 5)]:
        for field in (QQ, PrimeField(32003)):
            c = Chart(d, l, field)
            phi = c.substitution_map()
            X = c.x_matrix()
            A = c._sub(X, c.mid, c.mid)
            B1 = c._sub(X, c.mid, range(1, c.e + 1))
            B2 = c._sub(X, c.mid, range(d - c.e + 1, d + 1))
            Je, Jm = antidiag(c.ring, c.e), antidiag(c.ring, len(c.mid))
            band = ((B2 @ Je @ B1.T) - (A @ Jm)).entries()
            for g in c.solve_relations() + band:
                assert g.substitute(phi, c.reduced_ring).is_zero(), (d, l, field, str(g))


def test_substitution_not_applicable_for_opposite_parity():
    c = Chart(6, 3)
    with pytest.raises(NotApplicable):
        c.substitution_map()
    with pytest.raises(NotApplicable):
        c.intermediate_ideal()


def test_specialize_fibers():
    c = Chart(6, 2)
    red = c.reduced_ideal()
    sp = c.specialize(red, "special")
    assert "pi" not in sp.ring.names
    trace0 = [g for g in sp.gens if g.total_degree() == 2 and len(g) == 4]
    assert len(trace0) == 1
    gen = c.specialize(red, "generic")
    consts = [constant_term(g) for g in gen.gens]
    assert Fraction(2) in consts  # t_r + 2 at pi = 1
    assert gen.gens == c.generic_fiber_ideal().gens
    # the arithmetic fiber, and any ideal without pi, is left as it is
    assert c.specialize(red, "arithmetic") is red
    assert c.specialize(sp, "generic") is sp
    for bad in ("unit", ("generic", 1)):
        with pytest.raises(ValueError, match="fiber must be one of"):
            c.specialize(red, bad)


def test_components_six_two():
    c = Chart(6, 2)
    comps = c.component_ideals()
    assert [label for label, _, _ in comps] == ["I1", "I2", "I3"]
    by_label = {label: (ideal, v) for label, ideal, v in comps}
    I1, v1 = by_label["I1"]
    assert [str(g) for g in I1.gens] == ["x[3][1]", "x[3][2]", "x[3][5]", "x[3][6]"]
    assert v1 == "x[4][1]"
    I2, v2 = by_label["I2"]
    assert [str(g) for g in I2.gens] == ["x[4][1]", "x[4][2]", "x[4][5]", "x[4][6]"]
    assert v2 == "x[3][1]"


def test_component_counts_by_case():
    expected = {(6, 2): 3, (8, 4): 2, (5, 3): 3, (7, 3): 2,
                (6, 3): 2, (5, 2): 3, (6, 4): 3, (8, 3): 2, (7, 4): 2}
    for (d, l), count in expected.items():
        assert len(Chart(d, l).component_ideals()) == count


def test_components_five_two():
    c = Chart(5, 2)
    comps = c.component_ideals()
    by_label = {label: ideal for label, ideal, _ in comps}
    assert [str(g) for g in by_label["I1"].gens] == \
        ["x[2][1]", "x[2][3]", "x[2][5]"]
    assert [str(g) for g in by_label["I2"].gens] == \
        ["x[4][1]", "x[4][3]", "x[4][5]"]
    quads = [g for g in by_label["I3"].gens if len(g) > 1]
    ring = c.fiber_ring
    row_sq = ring.parse("x[2][1]*x[2][5] + 1/2*x[2][3]^2")
    assert tuple(row_sq.monic().terms()) in \
        {tuple(g.monic().terms()) for g in quads}


@pytest.mark.parametrize("d, l, modulus", [
    (5, 2, 32003), (5, 3, 32003), (6, 2, 32003), (6, 3, 32003), (8, 3, 32003),
    (8, 5, 32003), (6, 3, 0)])
def test_chart_ideal_presents_the_band_ideal(d, l, modulus):
    # in every parity case the chart ideal I solves each non-band variable,
    # cuts down to exactly I'' on k[band, pi] and has dimension d - 1; an EO
    # J_m that pairs row n with the deleted center row fails all three
    c = Chart(d, l, PrimeField(modulus) if modulus else QQ)
    full = c.full_ideal()
    gb = full.groebner()
    leads = {c.ring.mono_str(m) for m in gb.lead_monomials()
             if c.ring.mono_degree(m) == 1}
    free = [nm for nm in c.ring.names if nm not in set(c.reduced_ring.names)]
    assert set(free) <= leads, (d, l, sorted(set(free) - leads))
    band = Ideal(c.reduced_ring, [cast(g, c.reduced_ring)
                                  for g in subring_part(gb, len(free))])
    assert band.equals(c.reduced_ideal())
    assert krull_dimension(full) == d - 1


def test_reduced_generators_lift_into_the_chart_ideal():
    # membership of the band presentation inside I, including the corrected
    # trace of the quasi-split even case, over both coefficient fields
    from olmcheck.rings import cast
    for d, l in [(6, 3), (5, 2)]:
        for field in (QQ, PrimeField(32003)):
            c = Chart(d, l, field)
            gb = c.full_ideal().groebner()
            for g in c.reduced_ideal().gens:
                assert gb.contains(cast(g, c.ring)), (d, l, field, str(g))


def test_components_contain_special_fiber_generators():
    for d, l in [(6, 2), (5, 3), (6, 3), (5, 2)]:
        c = Chart(d, l)
        sp = c.special_fiber_ideal()
        for _, ideal, _ in c.component_ideals():
            for g in sp.gens:
                assert ideal.contains(g)


def test_chart_json_shape_and_round_trip():
    c = Chart(6, 2)
    data = c.to_json("special")
    assert data["case"] == "EE" and data["Z"] == [3, 4]
    assert set(data["ideals"]) == {"naive", "add", "full", "intermediate",
                                   "reduced", "components"}
    fr = c.fiber_ring
    for text in data["ideals"]["reduced"]:
        fr.parse(text)  # grammar round trip
    data_o = Chart(6, 3).to_json()
    assert data_o["ideals"]["intermediate"] is None


def test_specialize_matches_substitute():
    # the fiber map drops or folds the pi terms; Polynomial.substitute with
    # pi -> 0 or 1 is the reference.  The (5,3) full ideal covers a block
    # order.
    def substituted(ideal, target, value):
        images = {nm: target.var(nm) for nm in target.names}
        images["pi"] = target.const(value)
        out = [g.substitute(images, target) for g in ideal.gens]
        return tuple(g for g in out if not g.is_zero())

    charts = [Chart(d, l) for d in range(5, 10) for l in range(2, d - 1)]
    assert len(charts) == 20
    for c in charts:
        red = c.reduced_ideal()
        for fiber, value in (("special", 0), ("generic", 1)):
            got = c.specialize(red, fiber)
            assert got.ring is c.fiber_ring
            assert got.gens == substituted(red, c.fiber_ring, value), \
                (c.d, c.l, fiber)
    c = Chart(5, 3)
    for fiber, value in (("special", 0), ("generic", 1)):
        got = c.specialize(c.full_ideal(), fiber)
        assert got.gens == substituted(c.full_ideal(), got.ring, value)


def test_render_dedups_sorts_and_specializes():
    c = Chart(6, 2)
    rr = c.reduced_ring
    a, b, pi = rr.var("x[3][1]"), rr.var("x[4][2]"), rr.var("pi")
    ideal = Ideal(rr, [a * b, b * pi + a, (a + b).scale(3), pi.scale(2),
                       a + b, a, a * b - pi])
    # a + b repeats 3*(a + b): the first is kept; lines follow (degree,
    # text) of the source, so b*pi + a stays last on the generic fiber
    assert c.render(ideal) == [
        "2*pi", "3*x[3][1] + 3*x[4][2]", "x[3][1]", "x[3][1]*x[4][2]",
        "x[3][1]*x[4][2] - pi", "x[4][2]*pi + x[3][1]"]
    assert c.render(ideal, "generic") == [
        "2", "3*x[3][1] + 3*x[4][2]", "x[3][1]", "x[3][1]*x[4][2]",
        "x[3][1]*x[4][2] - 1", "x[3][1] + x[4][2]"]
    # 2*pi specializes to 0 and is dropped
    assert c.render(ideal, "special") == [
        "3*x[3][1] + 3*x[4][2]", "x[3][1]", "x[3][1]*x[4][2]",
        "x[3][1]*x[4][2]", "x[3][1]"]


def test_full_ideal_keeps_its_generators_as_built():
    c = Chart(6, 2)
    built = c.naive_generators() + c.additional_generators()
    gens = c.full_ideal().gens
    assert gens == tuple(g for g in built if not g.is_zero())
    # only printing drops the scalar-multiple repeats
    assert len(c.render(c.full_ideal())) < len(gens)


def test_prime_field_chart_matches_rational_counts():
    cq = Chart(6, 2, QQ)
    cp = Chart(6, 2, PrimeField(32003))
    assert len(cq.full_ideal().gens) == len(cp.full_ideal().gens)
    assert len(cq.reduced_ideal().gens) == len(cp.reduced_ideal().gens)
