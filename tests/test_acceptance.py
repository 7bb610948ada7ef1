"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check uses its stated tolerance, nothing is deferred to later
calibration.
"""

import json
import time
from decimal import Decimal, getcontext
from fractions import Fraction as F

from mpmath import mp

from xyyx.cli import main
from xyyx.exact import PrimePowerProduct
from xyyx.solutions import (
    euler_solution,
    rational_family,
    search_integer_solutions,
    verify_fractions,
    verify_power_equation,
    verify_product_equation,
)
from xyyx.transforms import (
    manual_pair,
    pair_from_euler,
    quad_from_family,
    verify_pair_transform,
    verify_quad_transform,
)
from xyyx.vpv import (
    Convention,
    Form,
    closed_form,
    count_visible,
    eval_product,
    exact_regroup_check,
    visible_points,
)

PPP = PrimePowerProduct


def _report(num: int, desc: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = "PASS" if ok else "FAIL"
    timing = f"  ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[{stamp}] criterion {num:2d}: {desc}{timing}")
    assert ok, f"criterion {num}: {desc}"


def run_cli_json(capsys, *argv):
    code = main([argv[0], "--json", *argv[1:]])
    return code, json.loads(capsys.readouterr().out)


EULER_SIX = [
    ("2", "4"),
    ("9/4", "27/8"),
    ("64/27", "256/81"),
    ("625/256", "3125/1024"),
    ("7776/3125", "46656/15625"),
    ("117649/46656", "823543/279936"),
]


def test_criterion_1_euler_family(capsys):
    t0 = time.perf_counter()
    code, doc = run_cli_json(capsys, "euler", "6")
    elapsed = time.perf_counter() - t0
    rows = doc["results"]["solutions"]
    ok = (
        code == 0
        and [(r["x"], r["y"]) for r in rows] == EULER_SIX
        and all(r["verified"] for r in rows)
        and all(verify_power_equation(*euler_solution(n)) for n in range(1, 7))
        and elapsed < 1.0
    )
    _report(1, "euler family reproduces the six listed tuples exactly", ok, elapsed)


FAMILY_TABLE = {
    (1, 1): (F(1, 2), F(1), F(1, 2), F(1, 2)),
    (2, 1): (F(2, 3), F(2), F(4, 3), F(2, 3)),
    (3, 1): (F(3, 4), F(3), F(9, 4), F(3, 4)),
    (4, 1): (F(4, 5), F(4), F(16, 5), F(4, 5)),
    (1, 2): (F(2, 3), F(2), F(2, 3), F(4, 3)),
    (2, 2): (F(4), F(16), F(8), F(8)),
    (3, 2): (F(72, 5), F(72), F(216, 5), F(144, 5)),
    (6, 2): (F(288), F(2304), F(1728), F(576)),
    (1, 3): (F(3, 4), F(3), F(3, 4), F(9, 4)),
    (3, 3): (F(3**5, 2), F(3**6), F(3**6, 2), F(3**6, 2)),
    (6, 3): (F(17496), F(157464), F(104976), F(52488)),
    (2, 4): (F(2**7, 3), F(2**8), F(2**8, 3), F(2**9, 3)),
    (5, 3): (F(30375, 8), F(30375), F(151875, 8), F(91125, 8)),
}


def test_criterion_2_family_table():
    t0 = time.perf_counter()
    ok = True
    for (b, c), expected in FAMILY_TABLE.items():
        t = rational_family(b, c)
        ok = ok and t.as_fractions() == expected and verify_product_equation(t)
    elapsed = time.perf_counter() - t0
    ok = ok and len(FAMILY_TABLE) == 13 and elapsed < 1.0
    _report(2, "all 13 table rows reproduce exactly and verify", ok, elapsed)


def test_criterion_3_digit_claims(capsys):
    getcontext().prec = 60
    oracle_62 = int(13824 * Decimal(2).log10() + 5184 * Decimal(3).log10()) + 1
    oracle_63 = int(524880 * Decimal(2).log10() + 1259712 * Decimal(3).log10()) + 1
    t0 = time.perf_counter()
    _, doc62 = run_cli_json(capsys, "digits", "6", "2")
    e1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, doc63 = run_cli_json(capsys, "digits", "6", "3")
    e2 = time.perf_counter() - t0
    ok = (
        doc62["results"]["digits"] == 6635 == oracle_62
        and doc63["results"]["digits"] == 759040 == oracle_63
        and e1 < 1.0
        and e2 < 1.0
    )
    _report(3, "digit counts 6635 and 759040 for the two huge powers", ok, e1 + e2)


def test_criterion_4_nontrivial_examples():
    ok = (
        verify_fractions(F(1, 3), F(1, 6), F(1, 2), F(4, 3)) is True
        and verify_fractions(F(1, 2), F(1, 3), F(1, 2), F(4, 3)) is True
        and verify_fractions(F(1, 2), F(1, 3), F(1, 3), F(1, 6)) is True
        and verify_fractions(F(2), F(3), F(2), F(4)) is False
    )
    _report(4, "three displayed equalities verify true, counterexample false", ok)


def test_criterion_5_vpv_closed_form():
    t0 = time.perf_counter()
    axis = eval_product(F(1, 2), F(3, 4), 400, 400, 256, Convention.AXIS, Form.RECIPROCAL)
    strict = eval_product(F(1, 2), F(3, 4), 400, 400, 256, Convention.STRICT, Form.RECIPROCAL)
    elapsed = time.perf_counter() - t0
    with mp.workprec(300):
        tol_axis = max(axis.tail_bound, mp.mpf("1e-10"))
        tol_strict = max(strict.tail_bound, mp.mpf("1e-10"))
        cf = closed_form(F(1, 2), F(3, 4), Convention.AXIS, Form.RECIPROCAL, 256)
        ok = (
            abs(cf - 16) < mp.mpf("1e-70")
            and abs(axis.product_value - 16) <= tol_axis
            and abs(strict.product_value - 4) <= tol_strict
        )
    ok = ok and elapsed < 30.0
    _report(5, "product at (1/2, 3/4) gives 16 (axis) and 4 (strict)", ok, elapsed)


def test_criterion_6_regrouping_oracle():
    ok = True
    for X, Y in ((F(1, 3), F(1, 2)), (F(-1, 2), F(2, 3)), (F(2), F(3))):
        for n in (6, 12):
            ok = ok and exact_regroup_check(X, Y, n, n)
    _report(6, "exact regrouping identity holds on the full grid", ok)


def test_criterion_7_mobius_crosscheck():
    t0 = time.perf_counter()
    ok = all(
        len(visible_points(n, n, Convention.STRICT)) == count_visible(n)
        for n in range(1, 201)
    )
    elapsed = time.perf_counter() - t0
    _report(7, "enumeration matches the Mobius count for N = 1..200", ok, elapsed)


def test_criterion_8_pair_transforms():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        rep = verify_pair_transform(pair_from_euler(n), 600, convention=Convention.AXIS)
        with mp.workprec(300):
            ok = ok and rep.verdict is True and rep.combined_bound <= mp.mpf("1e-10")
    erratum = verify_pair_transform(manual_pair(F(1, 2), F(1, 4)), 300)
    ok = ok and erratum.verdict is False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(8, "pair transforms n = 1..4 pass; printed variant fails", ok, elapsed)


def test_criterion_9_quad_transforms():
    t0 = time.perf_counter()
    ok = True
    for a, b, c in ((3, 2, 1), (4, 2, 2)):
        rep = verify_quad_transform(quad_from_family(F(a), F(b), F(c)), 400)
        ok = ok and rep.warning is None and rep.verdict is True
    numeric_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    for a, b, c in ((8, 6, 2), (9, 6, 3)):
        rep = verify_quad_transform(quad_from_family(F(a), F(b), F(c)), 1000)
        ok = ok and rep.warning == "infeasible-truncation" and rep.exact_verdict is True
    # the two displayed equalities, rebuilt from scratch as exponent vectors
    ok = ok and (
        PPP.from_int(288) ** 2304 * PPP.from_int(2304) ** 288
        == PPP.from_int(1728) ** 576 * PPP.from_int(576) ** 1728
    )
    ok = ok and (
        PPP.from_int(17496) ** 157464 * PPP.from_int(157464) ** 17496
        == PPP.from_int(104976) ** 52488 * PPP.from_int(52488) ** 104976
    )
    exact_elapsed = time.perf_counter() - t0
    ok = ok and exact_elapsed < 1.0
    _report(
        9,
        "quad transforms verify; near-1 parameters fall back to exact identity",
        ok,
        numeric_elapsed + exact_elapsed,
    )


def test_criterion_10_integer_search():
    # The stated row list for this criterion disagrees with the source table:
    # (3,3) has x = 243/2 and (2,4) has x = 128/3, which are not integers, and
    # (4,4) = (8192, 65536, 32768, 32768) is integral but unlisted.  The
    # checks below pin the arithmetic that forces the corrected set.
    assert rational_family(3, 3).as_fractions()[0] == F(243, 2)
    assert rational_family(2, 4).as_fractions()[0] == F(128, 3)

    t0 = time.perf_counter()
    found = search_integer_solutions(6, 4)
    elapsed = time.perf_counter() - t0
    pairs = [(int(b), int(c)) for b, c in (t.params for t in found)]
    ok = pairs == [(2, 2), (4, 4), (6, 2), (6, 3)]
    for t in found:
        ok = ok and all(u.to_fraction().denominator == 1 for u in t.values())
        ok = ok and verify_product_equation(t)
    # every integral row of the table in range is found
    integral_table_rows = [(2, 2), (6, 2), (6, 3)]
    ok = ok and all(r in pairs for r in integral_table_rows)
    ok = ok and elapsed < 5.0
    _report(10, "integer search finds exactly the integral tuples in range", ok, elapsed)
