"""Self-test of the benchmark's checkers: each must accept a correct
output and reject a deliberately corrupted one.

    python3 bench/selftest.py

Run from the root of a checkout; exits 1 if any checker accepts a
corruption or rejects a correct output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from child import load_program  # noqa: E402

lib = load_program(BENCH.parent / "src")

import oracle  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from workloads import RationalLambda, SymTables, VerifyBattery  # noqa: E402

SYM = lib.SYMBOLIC
CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def rejects(check, corrupted) -> None:
    try:
        check(corrupted)
    except CheckFailed:
        return
    raise AssertionError("corrupted output was accepted")


def bump(cs: list, i: int) -> list:
    """The coefficient list with entry i raised by one."""
    out = list(cs) + [Fraction(0)] * (i + 1 - len(cs))
    out[i] += 1
    while out and not out[-1]:
        out.pop()
    return out


def run_op(op):
    out = op.run()
    assert not op.failed(out), f"{op.key} failed"
    op.check(out)  # the correct output passes
    return out


def text_op_rejects(op, old: str, new: str) -> None:
    """Replace the first ``old`` in the op's document by ``new``."""
    out = run_op(op)
    assert old in out.stdout, f"{old!r} not in {op.key}"
    bad = type(out)(out.code, out.stdout.replace(old, new, 1), out.stderr)
    rejects(op.check, bad)


# rows ---------------------------------------------------------------------


@case
def symbolic_row_coefficient():
    ro = oracle.RowOracle()
    row = [list(v.coeffs) for v in lib.bernoulli.row_via_series(7, SYM).values]
    oracle.check_sym_row(row, ro)
    row[5] = bump(row[5], 3)
    rejects(lambda r: oracle.check_sym_row(r, ro), row)


@case
def symbolic_row_degree():
    # adding λ(λ-1)...(λ-n-1) keeps every sampled value, so only the
    # degree bound can catch it
    ro = oracle.RowOracle()
    n = 5
    row = [list(v.coeffs) for v in lib.bernoulli.row_via_series(n, SYM).values]
    extra = [Fraction(1)]
    for root in range(n + 2):
        extra = [(extra[i - 1] if i else 0) - root * (extra[i] if i < len(extra) else 0)
                 for i in range(len(extra) + 1)]
    row[n] = [a + b for a, b in zip(row[n] + [0] * len(extra), extra)]
    rejects(lambda r: oracle.check_sym_row(r, ro), row)


@case
def higher_order_row():
    ro = oracle.RowOracle()
    row = [list(v.coeffs) for v in lib.bernoulli.row_higher_order(3, 6, SYM).values]
    oracle.check_sym_row(row, ro, 3)
    rejects(lambda r: oracle.check_sym_row(r, ro, 3), row[:4] + [bump(row[4], 0)] + row[5:])
    rejects(lambda r: oracle.check_sym_row(r, ro, 2), row)


@case
def evaluated_row():
    lam = Fraction(-7, 3)
    values = list(lib.bernoulli.row_via_multinomial(9, lib.EvaluatedDomain(lam)).values)
    oracle.check_eval_row(values, lam)
    values[6] += Fraction(1, 10**9)
    rejects(lambda v: oracle.check_eval_row(v, lam), values)


@case
def classical_values():
    values = lib.bernoulli.classical_row(9, "stirling")
    oracle.check_classical(values)
    rejects(oracle.check_classical, values[:7] + [-values[7]] + values[8:])


# triangles ----------------------------------------------------------------


@case
def triangle_entry():
    table = lib.coeff_triangle(6, SYM)
    rows = [[list(v.coeffs) for v in table.row(N)] for N in range(1, 7)]
    oracle.check_triangle(rows)
    for i, power in ((2, 1), (0, 0), (5, 0)):
        bad = [list(r) for r in rows]
        bad[5][i] = bump(bad[5][i], power)
        rejects(oracle.check_triangle, bad)


@case
def stirling_tables():
    ro = oracle.RowOracle()
    deg2 = lib.degenerate_stirling2(7, SYM)
    rows = [[list(deg2.value(n, k).coeffs) for k in range(n + 1)] for n in range(8)]
    oracle.check_stirling("deg2", rows, ro)
    rows[6][3] = bump(rows[6][3], 1)
    rejects(lambda r: oracle.check_stirling("deg2", r, ro), rows)
    rows = [[list(lib.scaled_degenerate_stirling(n, k, SYM).coeffs) for k in range(n + 1)]
            for n in range(8)]
    oracle.check_stirling("scaled", rows, ro)
    rejects(lambda r: oracle.check_stirling("deg2", r, ro), rows)


# reports ------------------------------------------------------------------


@case
def report_verdicts():
    good = lib.verify.verify_convolution(5, SYM).to_json_dict()
    oracle.check_report(good)
    rejects(oracle.check_report, dict(good, verdict="fail"))
    rejects(lambda r: oracle.check_report(r, expect_pass=False), good)
    failing = dict(good, verdict="fail", witness={"j": 2})
    oracle.check_report(failing, expect_pass=False)
    rejects(lambda r: oracle.check_report(r, expect_pass=False), dict(failing, witness=None))


@case
def fault_injection_is_caught():
    wl = VerifyBattery(lib, 0)
    table = lib.coeff_triangle(8, SYM)
    for N in range(1, 6):
        for i in range(N + 1):
            report = lib.verify.verify_ode(N, 6, SYM, wl.corrupted(table, N, i))
            oracle.check_report(report.to_json_dict(), expect_pass=False)
    for n in range(2, 9):
        for i in range(1, n):
            report = lib.verify.verify_convolution(n, SYM, wl.corrupted(table, n, i))
            oracle.check_report(report.to_json_dict(), expect_pass=False)


@case
def malformed_contract():
    assert oracle.check_malformed(2, "", "error: --max-n must be nonnegative\n")
    assert not oracle.check_malformed(1, "", "error: x\n")
    assert not oracle.check_malformed(2, "{}", "error: x\n")
    assert not oracle.check_malformed(2, "", "Traceback (most recent call last):\nerror: x\n")
    wl = SymTables(lib, 0)
    for argv in (["b", "--max-n", "3", "--lambda", "0"], ["classical", "--max-n", "-2"]):
        op = wl.malformed_op(argv)
        assert not op.failed(op.run()), argv


# documents ----------------------------------------------------------------


@case
def documents_of_every_format():
    wl = SymTables(lib, 0)
    text_op_rejects(wl.cli_b(5, "series", "json"), '"-19/30"', '"-19/31"')
    text_op_rejects(wl.cli_b(5, "recurrence", "csv"), "-19/30", "-19/31")
    text_op_rejects(wl.cli_b(5, "explicit", "latex"), "\\frac{19}{30}", "\\frac{19}{31}")
    text_op_rejects(wl.cli_b_higher(5, 2, "csv"), "true", "false")
    text_op_rejects(wl.cli_a(4, "json"), '"6"', '"7"')
    text_op_rejects(wl.cli_a(4, "latex"), "\\lambda^{2}", "\\lambda^{3}")
    text_op_rejects(wl.cli_stirling("deg2", 5, "csv"), "3*λ", "4*λ")
    text_op_rejects(wl.cli_stirling("scaled", 5, "json"), '"-3"', '"-2"')
    text_op_rejects(wl.cli_classical(6, "latex"), "\\frac{863}{84}", "\\frac{863}{85}")
    rl = RationalLambda(lib, 0)
    text_op_rejects(rl.cli_b_all(5, Fraction(3, 7), "json"), '"lambda": "3/7"', '"lambda": "3/8"')


@case
def verify_documents():
    wl = VerifyBattery(lib, 0)
    rng = wl.rng(0)
    for suite, fmt in (("cor34", "json"), ("cor42", "csv"), ("eq41", "latex")):
        op = wl.cli_verify(rng, suite, 0, fmt)
        text_op_rejects(op, "pass", "fail")
    op = wl.cli_verify(rng, "thm41", 0, "csv")
    text_op_rejects(op, "j=0", "j=9")


# inputs -------------------------------------------------------------------


@case
def rational_lambda_stays_fresh():
    # far more rounds than a run makes: the λ pool of a key must never
    # run out, and no (kind, n, λ) may repeat
    wl = RationalLambda(lib, 0)
    keys = [op.key for index in range(200) for op in wl.round(index)]
    assert len(set(keys)) == len(keys), "a rational_lambda request repeats"


def main() -> int:
    bad = 0
    for fn in CASES:
        try:
            fn()
        except AssertionError as exc:
            bad += 1
            print(f"FAIL {fn.__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    print(json.dumps({"cases": len(CASES), "failed": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
