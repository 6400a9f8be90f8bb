"""CLI front end: golden files, format agreement, determinism across
runs, and the exit-code contract."""

import argparse
import csv
import gc
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from degenbern import IdentityReport, scalar_from_json, scalar_to_latex, scalar_to_text
from degenbern import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDENS = [
    ("b_routes_sym.json", ["b", "--max-n", "4", "--lambda", "sym", "--route", "all", "--format", "json"]),
    ("b_routes_sym.csv", ["b", "--max-n", "4", "--lambda", "sym", "--route", "all", "--format", "csv"]),
    ("b_half_r2.csv", ["b", "--max-n", "5", "--lambda", "1/2", "--order-r", "2", "--route", "all", "--format", "csv"]),
    ("a_triangle.csv", ["a", "--max-N", "3", "--route", "all", "--format", "csv"]),
    ("a_triangle.tex", ["a", "--max-N", "3", "--format", "latex"]),
    ("stirling_first.csv", ["stirling", "--kind", "first", "--max-n", "5", "--format", "csv"]),
    ("stirling_deg2.json", ["stirling", "--kind", "deg2", "--max-n", "3", "--format", "json"]),
    ("stirling_scaled.csv", ["stirling", "--kind", "scaled-deg2", "--max-n", "4", "--format", "csv"]),
    ("classical.json", ["classical", "--max-n", "6", "--format", "json"]),
    ("verify_ode.json", ["verify", "--suite", "ode", "--max-N", "3", "--format", "json"]),
    ("verify_cor42.csv", ["verify", "--suite", "cor42", "--max-N", "4", "--format", "csv"]),
    ("verify_thm41.csv", ["verify", "--suite", "thm41", "--max-N", "2", "--max-j", "2", "--format", "csv"]),
    ("verify_cor42.tex", ["verify", "--suite", "cor42", "--max-N", "3", "--format", "latex"]),
    ("b_routes_7_3.tex", ["b", "--max-n", "3", "--lambda", "7/3", "--route", "all", "--format", "latex"]),
    ("a_routes_zero.csv", ["a", "--max-N", "3", "--route", "all", "--lambda", "0", "--format", "csv"]),
]


def run_cli(argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "degenbern", *argv],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli {argv} exited {proc.returncode}: {proc.stderr}"
        )
    return proc


@pytest.mark.parametrize("name,argv", GOLDENS, ids=[g[0] for g in GOLDENS])
def test_golden(name, argv, bless):
    out = run_cli(argv).stdout
    path = GOLDEN_DIR / name
    if bless:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(out)
        return
    assert path.exists(), f"golden file {name} missing; run pytest --bless"
    assert out == path.read_text()


def test_a_failing_report_emits_as_csv_and_latex():
    # a report with a nested witness: CSV carries the witness as compact
    # JSON, LaTeX leaves it out and escapes the identity's underscores
    report = IdentityReport(
        identity="thm_4_1",
        parameters={"N": 2, "j": 1, "lambda": "7/3"},
        verdict=False,
        witness={"exponent": -1, "lhs": ["1/2", "-1/3"],
                 "rhs": {"value": "0", "terms": [1, None, True]}},
    )
    payload = {"kind": "verification", "suite": "thm41",
               "reports": [report.to_json_dict()], "all_pass": False}
    doc = cli.make_document(["verify", "--suite", "thm41"], "7/3", 6, payload)
    assert cli.emit(doc, "csv") == (
        '"identity","parameters","verdict","witness"\n'
        '"thm_4_1","N=2;j=1;lambda=7/3","fail",'
        '"{""exponent"":-1,""lhs"":[""1/2"",""-1/3""],'
        '""rhs"":{""value"":""0"",""terms"":[1,null,true]}}"\n'
    )
    assert cli.emit(doc, "latex") == (
        "% degenbern 0.1.0\n"
        "% command: verify --suite thm41\n"
        "% lambda: 7/3, order: 6\n"
        "\\begin{tabular}{lll}\n"
        "identity & parameters & verdict \\\\\n"
        "\\hline\n"
        "thm\\_4\\_1 & N=2; j=1; lambda=7/3 & fail \\\\\n"
        "\\end{tabular}\n"
    )


def test_repeated_runs_are_byte_identical():
    # negative rationals use the = form so argparse does not read a flag
    argv = ["b", "--max-n", "6", "--lambda=-1/3", "--route", "all"]
    assert run_cli(argv).stdout == run_cli(argv).stdout


# every table command, by id; each runs in all three formats
AGREEMENT_CASES = {
    "b_all_sym": ["b", "--max-n", "5", "--lambda", "sym", "--route", "all"],
    "b_all_7_3": ["b", "--max-n", "5", "--lambda", "7/3", "--route", "all"],
    "b_r2_all": ["b", "--max-n", "4", "--lambda", "1/2", "--order-r", "2", "--route", "all"],
    "a_all": ["a", "--max-N", "4", "--route", "all"],
    "stirling_first": ["stirling", "--kind", "first", "--max-n", "4"],
    "stirling_deg2": ["stirling", "--kind", "deg2", "--max-n", "4"],
    "stirling_scaled_deg2": ["stirling", "--kind", "scaled-deg2", "--max-n", "4"],
    "classical": ["classical", "--max-n", "5"],
}


def render_json_cell(cell, false: str, true: str, scalar) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return true if cell else false
    if isinstance(cell, int):
        return str(cell)
    return scalar(scalar_from_json(cell))


@pytest.mark.parametrize("argv", AGREEMENT_CASES.values(), ids=AGREEMENT_CASES.keys())
def test_json_and_csv_agree_on_values(argv):
    # each CSV and LaTeX cell is the rendering of its JSON cell
    doc = json.loads(run_cli(argv + ["--format", "json"]).stdout)
    columns, json_rows = doc["payload"]["columns"], doc["payload"]["rows"]
    assert any(None in row for row in json_rows) == (argv[0] in ("a", "stirling"))
    csv_rows = list(csv.reader(io.StringIO(run_cli(argv + ["--format", "csv"]).stdout)))
    assert csv_rows[0] == columns
    assert csv_rows[1:] == [[render_json_cell(c, "false", "true", scalar_to_text) for c in row]
                            for row in json_rows]
    lines = run_cli(argv + ["--format", "latex"]).stdout.splitlines()
    begin = lines.index(r"\begin{tabular}{" + "l" * len(columns) + "}")
    assert lines[begin + 1:begin + 3] == [" & ".join(columns) + r" \\", r"\hline"]
    assert lines[begin + 3:] == [
        " & ".join(render_json_cell(c, r"\mathrm{false}", r"\mathrm{true}", scalar_to_latex)
                   for c in row) + r" \\" for row in json_rows] + [r"\end{tabular}"]


def test_verify_exit_zero_on_pass():
    proc = run_cli(["verify", "--suite", "cor34", "--max-N", "5"], check=False)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["all_pass"] is True
    assert doc["schema_version"] == 1


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    def fake(N, order, domain, coeffs=None, table=None):
        return IdentityReport(
            identity="ode_family",
            parameters={"N": N, "order": order, "lambda": "sym"},
            verdict=False,
            witness={"exponent": -2, "lhs": "1", "rhs": "0"},
        )

    monkeypatch.setattr("degenbern.verify.verify_ode", fake)
    code = cli.main(["verify", "--suite", "ode", "--max-N", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["payload"]["all_pass"] is False


# (argv, runtime): a runtime error is reported by the program itself as
# one "error:" line; the others are argparse usage errors
ERROR_CASES = [
    (["b", "--max-n", "3", "--lambda", "abc"], True),
    (["b", "--max-n", "3", "--lambda", "1/2/3"], True),
    (["b", "--max-n", "3", "--lambda", "2/4/6"], True),
    (["b", "--max-n", "3", "--lambda", "1/0"], True),
    (["b", "--max-n", "3", "--lambda", "0"], True),
    (["b", "--max-n", "3", "--lambda", "0", "--order-r", "2"], True),
    (["b", "--max-n", "-1"], True),
    (["b", "--max-n", "3", "--order-r", "0"], True),
    (["b", "--max-n", "30", "--route", "multinomial"], True),
    (["b", "--max-n", "3", "--order-r", "2", "--route", "recurrence"], True),
    (["a", "--max-N", "3", "--lambda", "abc"], True),
    (["a", "--max-N", "3", "--lambda", "1/2/3"], True),
    (["a", "--max-N", "3", "--lambda", "1/0"], True),
    (["a", "--max-N", "3", "--lambda", "0", "--route", "falling"], True),
    (["a", "--max-N", "0"], True),
    (["a", "--max-N", "-2"], True),
    (["stirling", "--kind", "first", "--max-n", "-1"], True),
    (["stirling", "--kind", "deg2", "--max-n", "-1"], True),
    (["stirling", "--kind", "scaled-deg2", "--max-n", "-1"], True),
    (["classical", "--max-n", "-1"], True),
    (["verify", "--suite", "ode", "--lambda", "abc"], True),
    (["verify", "--suite", "thm41", "--lambda", "1/2/3"], True),
    (["verify", "--suite", "cor34", "--lambda", "1/0"], True),
    (["verify", "--suite", "ode", "--max-N", "2", "--lambda", "0"], True),
    (["verify", "--suite", "thm41", "--max-N", "2", "--lambda", "0"], True),
    (["verify", "--max-N", "0"], True),
    (["verify", "--suite", "ode", "--max-N", "-1"], True),
    (["verify", "--suite", "ode", "--order", "1"], True),
    (["verify", "--suite", "thm41", "--max-j", "-1"], True),
    (["verify", "--suite", "all", "--max-N", "2", "--max-j", "-1"], True),
    (["verify", "--suite", "cor42", "--max-N", "1"], True),
    (["verify", "--suite", "nope"], False),
    (["b", "--max-n", "3", "--threads", "2"], False),
    (["a", "--max-N", "3", "--threads", "2"], False),
    (["stirling", "--kind", "first", "--max-n", "3", "--threads", "2"], False),
    (["classical", "--max-n", "3", "--threads", "2"], False),
    (["verify", "--suite", "ode", "--max-N", "2", "--threads", "2"], False),
]


@pytest.mark.parametrize(
    "argv,runtime", ERROR_CASES, ids=[" ".join(argv) for argv, _ in ERROR_CASES]
)
def test_error_contract(argv, runtime):
    proc = run_cli(argv, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    if runtime:
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1


NEGATIVE_SIZES = [
    ["b", "--max-n", "-1"],
    ["b", "--max-n", "-1", "--order-r", "2"],
    ["classical", "--max-n", "-1"],
]


@pytest.mark.parametrize("argv", NEGATIVE_SIZES, ids=[" ".join(argv) for argv in NEGATIVE_SIZES])
def test_negative_row_size_names_n_max(argv):
    proc = run_cli(argv, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "n_max" in proc.stderr


# (run function, argv, the sizes the error line names); no test builds a
# size that large, the run function is rebound to raise what one would
RESOURCE_CASES = [
    ("run_b", ["b", "--max-n", "4"], "--max-n 4, --order-r 1"),
    ("run_verify", ["verify", "--suite", "ode", "--max-N", "3", "--order", "40"],
     "--max-N 3, --max-j 8, --order 40"),
]


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
@pytest.mark.parametrize("runner,argv,sizes", RESOURCE_CASES,
                         ids=[runner for runner, _, _ in RESOURCE_CASES])
def test_a_size_too_large_exits_two(monkeypatch, capsys, error, runner, argv, sizes):
    def fake(args, command):
        raise error()

    monkeypatch.setattr(cli, runner, fake)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {sizes}: too large to compute ({error.__name__})\n"


def route_choices(subcommand: str) -> tuple:
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parser = subparsers.choices[subcommand]
    return next(a for a in parser._actions if a.dest == "route").choices


def test_every_route_choice_names_a_library_route():
    # run_b and run_a run their routes through the route tables, so a
    # renamed route function must fail here rather than at a command
    # line, and the --route choices are the table entries the CLI
    # offers, plus "all"
    from degenbern import verify
    from degenbern.scalars import domain_from_string

    dom = domain_from_string("7/3")
    calls = [(verify.B_ROUTES, (3, dom)), (verify.ORDER_R_ROUTES, (2, 3, dom)),
             (verify.A_ROUTES, (2, dom)),
             *[(routes, (3, dom)) for _, routes in verify.STIRLING_ROUTES.values()]]
    for table, args in calls:
        for entry in table:
            assert entry.compute(*args) is not None, entry.name
    for subcommand, table in (("b", verify.B_ROUTES), ("a", verify.A_ROUTES)):
        offered = [entry.column for entry in table if entry.cli]
        assert offered and route_choices(subcommand) == (*offered, "all")


def test_b_refuses_a_size_past_a_cap_before_any_route_runs(monkeypatch, capsys):
    # the capped multinomial route comes third in --route all, so the
    # size is refused before the routes ahead of it spend their time
    from degenbern import bernoulli

    calls = []
    for name in [name for name in vars(bernoulli) if name.startswith("row_via_")]:
        real = getattr(bernoulli, name)
        monkeypatch.setattr(bernoulli, name,
                            lambda *a, real=real, **kw: calls.append(a) or real(*a, **kw))
    assert cli.main(["b", "--max-n", "120", "--route", "all"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: multinomial route is exponential; n = 120 exceeds the cap of 24\n"
    assert calls == []


@pytest.mark.parametrize("suite", ["ode", "cor42"])
def test_max_j_binds_only_the_thm41_suite(suite):
    # only thm41 reads max_j, so another suite runs at max_j = -1 and
    # reports what it reports at max_j = 0
    docs = [json.loads(run_cli(["verify", "--suite", suite, "--max-N", "3", "--max-j", j]).stdout)
            for j in ("-1", "0")]
    assert docs[0]["payload"] == docs[1]["payload"]
    assert docs[0]["payload"]["reports"]


@pytest.mark.parametrize("suite", ["eq41", "eq42"])
def test_lambda_zero_suites_record_lambda_zero(suite):
    for lam in ([], ["--lambda", "0"]):
        doc = json.loads(run_cli(["verify", "--suite", suite, "--max-N", "2", *lam]).stdout)
        assert doc["lambda"] == "0"
        assert all(r["parameters"]["lambda"] == "0" for r in doc["payload"]["reports"])
    for lam in ("1/2", "sym"):
        proc = run_cli(["verify", "--suite", suite, "--max-N", "2", "--lambda", lam], check=False)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_a_at_lambda_zero_skips_falling_with_note():
    proc = run_cli(["a", "--max-N", "4", "--lambda", "0", "--route", "all"])
    doc = json.loads(proc.stdout)
    assert doc["payload"]["all_agree"] is True
    assert doc["payload"]["notes"] == ["falling route skipped: undefined at lambda = 0"]


def test_a_at_lambda_zero_prints_its_note_in_latex():
    # CSV has no comment syntax and carries no notes
    argv = ["a", "--max-N", "3", "--lambda", "0", "--route", "all", "--format"]
    lines = run_cli(argv + ["latex"]).stdout.splitlines()
    assert lines[2:5] == ["% lambda: 0", "% note: falling route skipped: undefined at lambda = 0",
                          r"\begin{tabular}{llllll}"]
    assert "falling" not in run_cli(argv + ["csv"]).stdout


@pytest.mark.parametrize("lam,shown", [("1/2\n", r"1/2\n"), ("1/2\u2028", r"1/2\u2028")],
                         ids=["newline", "line_separator"])
def test_a_line_break_in_an_argument_stays_in_the_latex_comment(capsys, lam, shown):
    # the parser strips the whitespace around a rational, so the command
    # runs; its LaTeX header shows the break escaped, its JSON as given
    argv = ["b", "--max-n", "2", "--lambda", lam, "--format"]
    assert cli.main(argv + ["latex"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"% command: b --max-n 2 --lambda {shown} --format latex"
    assert lines[2:4] == ["% lambda: 1/2, order: 3", r"\begin{tabular}{ll}"]
    assert cli.main(argv + ["json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv + ["json"]


def test_the_latex_header_escapes_every_line_break():
    breaks = [chr(c) for c in range(sys.maxunicode + 1) if len(f"a{chr(c)}b".splitlines()) > 1]
    assert "\n" in breaks and "\u2028" in breaks
    doc = cli.make_document(["b", *breaks, "\r\n"], "sym", 1,
                            {"columns": ["n"], "rows": [[0]]})
    lines = cli.emit(doc, "latex").splitlines()
    assert len(lines) == 8 and all(line.startswith("%") for line in lines[:3])


def test_version_flag():
    proc = run_cli(["--version"])
    assert proc.stdout.strip().startswith("degenbern ")


def test_b_higher_order_all_agrees():
    doc = json.loads(
        run_cli(["b", "--max-n", "6", "--lambda", "2", "--order-r", "3", "--route", "all"]).stdout
    )
    assert doc["payload"]["columns"] == ["n", "series", "convolution", "agree"]
    assert doc["payload"]["all_agree"] is True


def test_command_echo_is_argv():
    argv = ["classical", "--max-n", "3", "--format", "json"]
    assert json.loads(run_cli(argv).stdout)["command"] == argv
    proc = run_cli(["classical", "--max-n", "3", "--threads", "2"], check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_main_keeps_one_parser_and_leaves_no_cyclic_garbage():
    argvs = [
        ["b", "--max-n", "5", "--lambda", "1/3", "--route", "all", "--format", "csv"],
        ["verify", "--suite", "ode", "--max-N", "2", "--format", "latex"],
        ["verify", "--suite", "ode", "--max-N", "2", "--format", "json"],
    ]
    cli.main(argvs[0])
    parser = cli._parser
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in argvs:
            assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert cli._parser is parser


def test_main_dispatches_through_the_current_run_function(monkeypatch, capsys):
    def fake(args, command):
        doc = cli.make_document(command, None, None, {"columns": ["n"], "rows": [[7]]})
        return doc, 0

    monkeypatch.setattr(cli, "run_classical", fake)
    assert cli.main(["classical", "--max-n", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == '"n"\n"7"\n'



def test_a_routes_take_shared_values_once_per_row(monkeypatch, capsys):
    # the Stirling route takes the Bell values T(N, k) for k = 0..N once
    # per row, 65 distinct values for N = 1..10, and the falling route
    # takes its alternating sums over (λl)_N in one call per row; the CLI
    # looks the routes up in the verify module's route table
    from degenbern import combinatorics, ode_coeffs, verify

    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in (combinatorics, ode_coeffs, verify):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)

    count(combinatorics, "bell_partial")
    count(combinatorics, "alternating_falling_sums")
    count(ode_coeffs, "coeff_triangle")
    assert cli.main(["a", "--max-N", "10", "--route", "all", "--format", "json"]) == 0
    assert calls == {"bell_partial": 65, "alternating_falling_sums": 10, "coeff_triangle": 1}
    assert json.loads(capsys.readouterr().out)["payload"]["all_agree"] is True
    # the recurrence triangle is built only where it is shown or compared
    calls.clear()
    assert cli.main(["a", "--max-N", "10", "--route", "stirling", "--format", "json"]) == 0
    assert calls == {"bell_partial": 65}
