import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from teichkit import confluence
from teichkit.confluence import (
    CHEW_RING,
    RESCALINGS,
    ArcNotCusped,
    DivergesFaster,
    EpsSeries,
    InconsistentValues,
    LimitCoords,
    NotAPowerOfBase,
    SingularExponentTable,
    chew_substitute,
    chewed_coordinates_numeric,
    cusped_three_holed,
    invert_monomials,
    lambda_lengths,
    leading_limit,
    limit_coordinates,
    limiting_relation_value,
    symbolic_coordinates,
)
from teichkit.fatgraph import PathWord
from teichkit.laurent import LaurentRing

F = Fraction


def weight_ring():
    return LaurentRing("s1", "s2", "s3", "q1", "q2", "c1", "c2")


def test_symbolic_coordinates_satisfy_trace_relation():
    from teichkit.fatgraph import fricke_value

    coords = symbolic_coordinates()
    assert fricke_value(coords) == 4


def test_substituted_series_have_integer_exponent_range():
    coords = symbolic_coordinates()
    for c, r in zip(coords, RESCALINGS):
        ser = chew_substitute(c)
        lead = ser.leading_exponent()
        assert lead is not None and lead >= -1
        assert (lead == -1) == (r == 1)


def test_limit_coordinates_frozen_forms():
    R = CHEW_RING
    ls1, ls2, ls3, lp1, lp2, kap1, kap2, eps = R.gens()
    a1 = ls1 ** 2 * lp1
    a2 = ls2 ** 2 * lp2
    b = ls3 ** 2 * kap1 * kap2
    kk = kap1 * kap2
    lim = limit_coordinates()
    assert lim.x1 == -a2 * b - b / a2 - kk / a2 - (lp2 + 1 / lp2) * b
    assert lim.x2 == -b * a1 - kk * a1
    assert lim.g1 == -(lp1 + 1 / lp1)
    assert lim.g2 == -(lp2 + 1 / lp2)
    assert lim.g3 == -kk
    assert lim.g4 == -a1 * a2 * b


def test_limit_x3_is_the_undegenerated_coordinate():
    coords = symbolic_coordinates()
    ser = chew_substitute(coords[2])
    assert sorted(ser.coeffs) == [0]
    assert limit_coordinates().x3 == ser.coefficient(0)


def test_kept_limit_is_the_derivation():
    first, second = limit_coordinates(), limit_coordinates()
    derived = LimitCoords(
        *(leading_limit(chew_substitute(c), r) for c, r in zip(symbolic_coordinates(), RESCALINGS))
    )
    assert first is second
    assert first == derived and second == derived


def test_the_limit_is_not_built_at_import():
    src = Path(confluence.__file__).resolve().parents[1]
    code = "import teichkit.cli, teichkit.confluence as c; print(c._limit.cache_info().currsize == 0)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


def test_limiting_relation_vanishes_symbolically():
    assert limiting_relation_value(limit_coordinates()).is_zero()


def test_limiting_relation_vanishes_on_random_rationals():
    lim = limit_coordinates()
    rng = random.Random(23)
    names = ("ls1", "ls2", "ls3", "lp1", "lp2", "kap1", "kap2")
    for _ in range(20):
        vals = {n: F(rng.randint(1, 9), rng.randint(1, 9)) for n in names}
        nums = LimitCoords(*(p.eval(vals) for p in lim))
        assert limiting_relation_value(nums) == 0


def test_relation_invariant_under_third_trace_normalization():
    # (x1, x2, g4, g3) -> (x1/g3, x2/g3, g4/g3, 1) scales every term by g3^-2
    R = LaurentRing("x1", "x2", "x3", "g1", "g2", "g3", "g4")
    x1, x2, x3, g1, g2, g3, g4 = R.gens()
    raw = limiting_relation_value(LimitCoords(x1, x2, x3, g1, g2, g3, g4))
    scaled = limiting_relation_value(
        LimitCoords(x1 / g3, x2 / g3, x3, g1, g2, R.one, g4 / g3)
    )
    assert scaled * g3 ** 2 == raw


def test_cusp_weight_rebalancing_is_a_symmetry():
    tau_ring = LaurentRing(*CHEW_RING.names, "tau")
    tau = tau_ring.gen("tau")
    sub = {"kap1": tau_ring.gen("kap1") * tau, "kap2": tau_ring.gen("kap2") / tau}
    for p in limit_coordinates():
        assert p.subs(tau_ring, sub) == p.subs(tau_ring, {})


def test_series_eval_matches_direct_evaluation():
    coords = symbolic_coordinates()
    rng = random.Random(17)
    names = ("ls1", "ls2", "ls3", "lp1", "lp2", "kap1", "kap2")
    for _ in range(8):
        vals = {n: F(rng.randint(1, 9), rng.randint(1, 9)) for n in names}
        e = F(1, rng.randint(2, 40))
        direct = chewed_coordinates_numeric(
            (vals["ls1"], vals["ls2"], vals["ls3"]),
            (vals["lp1"], vals["lp2"]),
            (vals["kap1"], vals["kap2"]),
            e,
        )
        for c, d in zip(coords, direct):
            assert chew_substitute(c).eval(vals, e) == d


def test_leading_limit_rescaling_contract():
    coords = symbolic_coordinates()
    x1 = chew_substitute(coords[0])
    with pytest.raises(DivergesFaster):
        leading_limit(x1, 0)
    g1 = chew_substitute(coords[3])
    assert leading_limit(g1, 1).is_zero()
    assert leading_limit(EpsSeries({}), 0).is_zero()
    assert leading_limit(x1) == leading_limit(x1, 1)


def test_cusped_graph_shape_and_lambda_monomials():
    R = weight_ring()
    s1, s2, s3, q1, q2, c1, c2 = R.gens()
    g, arcs, loops = cusped_three_holed((s1, s2, s3), (q1, q2), (c1, c2))
    assert sorted(len(f) for f in g.faces()) == [1, 1, 12]
    lam = lambda_lengths(g, arcs)
    assert lam["a"] == c2 ** 2 * q1 ** 2 * q2 * s1 ** 4 * s2 ** 2 * s3 ** 2
    assert lam["b"] == c2 ** 2 * q1 * s1 ** 2 * s3 ** 2
    assert lam["c"] == c2 ** 2 * q1 * q2 * s1 ** 2 * s2 ** 2 * s3 ** 2
    assert lam["d"] == c1 * c2 * q1 * q2 * s1 ** 2 * s2 ** 2 * s3 ** 2
    assert lam["e"] == c1 * c2
    assert g.holonomy(loops["loop1"]).trace() == q1 + 1 / q1
    assert g.holonomy(loops["loop2"]).trace() == q2 + 1 / q2


def test_lambda_lengths_positive_on_random_rationals():
    rng = random.Random(41)
    for _ in range(10):
        ws = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(7)]
        g, arcs, _ = cusped_three_holed(ws[:3], ws[3:5], ws[5:])
        for v in lambda_lengths(g, arcs).values():
            assert isinstance(v, Fraction) and v > 0


def test_lambda_lengths_reject_uncusped_words():
    R = weight_ring()
    gens = R.gens()
    g, arcs, _ = cusped_three_holed(gens[:3], gens[3:5], gens[5:])
    with pytest.raises(ArcNotCusped):
        lambda_lengths(g, {"bad": PathWord((("E", "s1"), "R", ("E", "k1")))})
    with pytest.raises(ArcNotCusped):
        lambda_lengths(g, {"bad": PathWord((("E", "k2"), "K", ("E", "k1")))})


def test_invert_monomials_needs_full_rank():
    R = weight_ring()
    s1, s2, s3, q1, q2, c1, c2 = R.gens()
    g, arcs, _ = cusped_three_holed((s1, s2, s3), (q1, q2), (c1, c2))
    lam = lambda_lengths(g, arcs)
    values = {k: F(1) for k in lam}
    with pytest.raises(SingularExponentTable):
        invert_monomials(lam, values, F(2))


def test_invert_monomials_round_trip_with_loop_rows():
    R = weight_ring()
    s1, s2, s3, q1, q2, c1, c2 = R.gens()
    g, arcs, _ = cusped_three_holed((s1, s2, s3), (q1, q2), (c1, c2))
    table = dict(lambda_lengths(g, arcs))
    table["q1"] = q1
    table["q2"] = q2
    exponents = {
        "s1": F(1), "s2": F(-2), "s3": F(3), "q1": F(2), "q2": F(0),
        "c1": F(1, 2), "c2": F(3, 2),
    }
    base = F(2)
    values = {}
    for name, mono in table.items():
        _, exps = mono.monomial_parts()
        t = sum(F(e) * exponents[v] for e, v in zip(exps, R.names))
        assert t.denominator == 1
        values[name] = base ** t
    out = invert_monomials(table, values, base)
    assert out == exponents


def test_invert_monomials_detects_inconsistency_and_bad_values():
    R = weight_ring()
    s1, s2, s3, q1, q2, c1, c2 = R.gens()
    g, arcs, _ = cusped_three_holed((s1, s2, s3), (q1, q2), (c1, c2))
    table = dict(lambda_lengths(g, arcs))
    table["q1"] = q1
    table["q2"] = q2
    table["ee"] = (c1 * c2) ** 2
    values = {k: F(1) for k in table}
    values["ee"] = F(4)  # contradicts e = 1
    with pytest.raises(InconsistentValues):
        invert_monomials(table, values, F(2))
    values["ee"] = F(3)
    with pytest.raises(NotAPowerOfBase):
        invert_monomials(table, values, F(2))
    with pytest.raises(InconsistentValues):
        invert_monomials({"a": s1}, {"b": F(1)}, F(2))


@pytest.mark.parametrize(
    "value, base, t",
    [
        (F(8), F(2), 3),
        (F(1, 8), F(2), -3),
        (F(1), F(7, 3), 0),
        (F(8), F(1, 2), -3),
        (F(1, 8), F(1, 2), 3),
        (F(4, 9), F(2, 3), 2),
        (F(9, 4), F(2, 3), -2),
        (F(3) ** 30000, F(3), 30000),
        (F(1, 3**30000), F(1, 3), 30000),
        (F(10**100 + 1, 10**100) ** 7, F(10**100 + 1, 10**100), 7),
    ],
)
def test_exponent_of_reads_the_power(value, base, t):
    assert confluence._exponent_of(value, base) == t


def test_exponent_of_agrees_with_repeated_division():
    rng = random.Random(5)
    for _ in range(2000):
        base = F(rng.randint(1, 30), rng.randint(1, 30))
        if base == 1:
            continue
        t = rng.randint(-25, 25)
        assert confluence._exponent_of(base**t, base) == t
        off = F(rng.randint(2, 9), rng.randint(2, 9))
        if any(off == base**k for k in range(-4, 5)):
            continue  # off is itself a power of base
        with pytest.raises(NotAPowerOfBase):
            confluence._exponent_of(base**t * off, base)


def test_exponent_of_does_a_bounded_number_of_steps():
    # one division per power took seconds here; the bit-length estimate
    # leaves a few multiplications, milliseconds even at 95,000 bits
    start = time.perf_counter()
    assert confluence._exponent_of(F(1, 3**60000), F(3)) == -60000
    assert time.perf_counter() - start < 0.25

@pytest.mark.parametrize(
    "value",
    [F(3) ** 20000 + 1, -(3**20000), F(1, 3**20000) + F(1, 7)],
    ids=["above", "negative", "below"],
)
def test_exponent_of_refuses_a_huge_non_power_briefly(value):
    with pytest.raises(NotAPowerOfBase) as info:
        confluence._exponent_of(value, F(3))
    assert len(str(info.value)) < 100 and "-bit rational" in str(info.value)
