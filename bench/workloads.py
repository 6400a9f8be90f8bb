"""The three seeded workloads.

A workload is a stream of rounds.  Every round of a workload holds the
same number of operations of each kind, in the same size strata, with
the same number of repeated, fault-injected and malformed requests, so
the share of failed operations is the same in every run and every
round costs about the same.  The seed picks the sizes inside each
stratum, the λ values, the document formats, which entries are
corrupted and the order of the operations.

Operations call degenbern through module attributes (``bernoulli.x``,
``cli.main``) at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import io
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from oracle import require

ROUND_OPS = 100  # per round; the latency tail is p90, ten samples beyond it
FORMATS = ("json", "csv", "latex")
BROKEN_REQUEST = ("b", "--max-n", "3", "--lambda", "1/0")
# the one kind allowed to fail: BROKEN_REQUEST exits 1 with a traceback
# until rational_from_string's ZeroDivisionError is caught
KEPT_FAILURE = "cli.malformed.zero_denominator"


@dataclass
class CliResult:
    code: object
    stdout: str
    stderr: str


@dataclass
class Op:
    """One request.  ``run`` is the timed call.  ``check`` raises
    CheckFailed on a wrong output and returns the output's largest
    coefficient bit length.  ``failed`` says whether a completed call
    broke the exit-code contract."""

    kind: str
    key: tuple
    run: Callable[[], object]
    check: Callable[[object], int]
    failed: Callable[[object], bool] = lambda out: False


def call_cli(cli, argv: list[str]) -> CliResult:
    """Run the CLI entry point in-process the way the interpreter would:
    an uncaught exception prints a traceback and exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the interpreter's top level: traceback, exit 1
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def sizes(rng: random.Random, strata) -> list[int]:
    return [rng.randint(lo, hi) for lo, hi in strata]


def formats(rng: random.Random, count: int) -> list[str]:
    out = [FORMATS[i % 3] for i in range(count)]
    rng.shuffle(out)
    return out


def poly_lists(values) -> list[list[Fraction]]:
    return [list(v.coeffs) for v in values]


def _constant(cs: list[Fraction]) -> Fraction:
    require(len(cs) <= 1, f"expected a rational, got coefficients {cs}")
    return cs[0] if cs else Fraction(0)


class Workload:
    name: str

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.oracle = oracle.RowOracle()

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def round(self, index: int) -> list[Op]:
        ops = self.build(self.rng(index))
        require(len(ops) == ROUND_OPS, f"{self.name} round has {len(ops)} operations")
        return ops

    def build(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """Small fixed requests that load every code path the rounds use."""
        raise NotImplementedError

    # shared op builders -------------------------------------------------

    def cli_op(self, kind: str, argv: list[str], fmt: str, check_doc) -> Op:
        argv = list(argv) + ["--format", fmt]
        cli = self.lib.cli

        def check(res: CliResult) -> int:
            require(res.stderr == "", f"{argv}: stderr {res.stderr[:200]!r}")
            doc = oracle.parse_document(fmt, res.stdout)
            if doc["meta"] is not None:
                require(doc["meta"]["command"] == argv, f"{argv}: echoed {doc['meta']['command']}")
            return check_doc(doc)

        return Op(kind, ("cli", *argv), lambda: call_cli(cli, argv), check,
                  lambda res: res.code != 0)

    def malformed_op(self, argv: list[str], kind: str = "cli.malformed") -> Op:
        cli = self.lib.cli

        def broken(res: CliResult) -> bool:
            return not oracle.check_malformed(res.code, res.stdout, res.stderr)

        return Op(kind, ("cli", *argv), lambda: call_cli(cli, argv), lambda res: 0, broken)


def _columns(doc, want: list[str]) -> None:
    require(doc["columns"] == want, f"columns {doc['columns']} != {want}")


def _agree_column(doc) -> None:
    require(all(row[-1] is True for row in doc["rows"]), "a route disagreement was reported")
    if doc["meta"] is not None:
        require(doc["meta"]["payload"]["all_agree"] is True, "all_agree is not true")


# ---------------------------------------------------------------------------


class SymTables(Workload):
    """Symbolic Q[λ] tables as library rows and CLI documents: the
    λ-polynomial ring, the series reciprocal and the emitters do the work,
    and repeated requests would let a cache show."""

    name = "sym_tables"

    # size strata per kind, with a long tail of large n, where the series
    # route grows as n^4.  A stratum spans at most two sizes and the costly
    # ones a single size, so every round costs about the same.
    SERIES = [(2, 3), (3, 4), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15),
              (16, 16), (17, 17), (19, 19), (23, 23), (32, 32)]
    RECURRENCE = [(2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 12), (14, 14),
                  (16, 16), (18, 18), (20, 20)]
    EXPLICIT = [(2, 3), (4, 5), (6, 7), (8, 8), (10, 10), (12, 12)]
    CLI_B = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 8), (9, 9),
             (10, 10), (11, 11), (11, 11), (12, 12), (13, 13), (14, 14), (15, 15)]
    CLI_B_ROUTES = ("series", "recurrence", "explicit")  # stratum i uses route i % 3
    CLI_B_HIGHER = [(2, 3), (4, 5), (5, 6), (7, 7), (8, 8), (9, 9)]
    CLI_A = [(1, 2), (2, 3), (3, 3), (3, 3), (4, 4), (4, 4), (5, 5), (6, 6)]
    CLI_DEG2 = [(1, 2), (2, 3), (4, 5), (6, 7), (8, 8), (9, 9), (10, 10), (11, 11), (12, 12)]
    CLI_SCALED = [(1, 2), (2, 3), (4, 5), (6, 6), (7, 7), (8, 8), (9, 9)]
    CLI_CLASSICAL = [(2, 4), (5, 6), (8, 9), (11, 11), (13, 13), (15, 15)]
    # (kind, stratum) of the requests each round sends a second time
    REPEATS = [("lib.series", 1), ("lib.series", 4), ("lib.series", 7),
               ("lib.recurrence", 2), ("lib.recurrence", 5),
               ("cli.b", 0), ("cli.b", 3), ("cli.b", 6), ("cli.b", 9),
               ("cli.a", 1), ("cli.a", 3), ("cli.stirling.deg2", 2),
               ("cli.stirling.scaled", 2), ("cli.classical", 1)]
    MALFORMED = 4  # seeded malformed requests per round, plus BROKEN_REQUEST

    def sym_row_op(self, kind: str, route: str, n: int) -> Op:
        B, sym = self.lib.bernoulli, self.lib.SYMBOLIC
        if route == "series":
            run = lambda: B.row_via_series(n, sym)
        elif route == "recurrence":
            run = lambda: B.row_via_recurrence(n, sym)
        else:
            run = lambda: B.row_via_explicit(n, sym, "a_form")

        def check(row) -> int:
            require(len(row.values) == n + 1, f"{route} row has {len(row.values)} values")
            return oracle.check_sym_row(poly_lists(row.values), self.oracle)

        return Op(kind, (kind, n), run, check)

    def cli_b(self, n: int, route: str, fmt: str) -> Op:
        def check(doc) -> int:
            _columns(doc, ["n", route])
            require([row[0] for row in doc["rows"]] == list(range(n + 1)), "row indices")
            return oracle.check_sym_row([row[1] for row in doc["rows"]], self.oracle)

        return self.cli_op("cli.b", ["b", "--max-n", str(n), "--route", route], fmt, check)

    def cli_b_higher(self, n: int, r: int, fmt: str) -> Op:
        def check(doc) -> int:
            _columns(doc, ["n", "series", "convolution", "agree"])
            _agree_column(doc)
            top = 0
            for col in (1, 2):
                top = max(top, oracle.check_sym_row([row[col] for row in doc["rows"]], self.oracle, r))
            return top

        argv = ["b", "--max-n", str(n), "--order-r", str(r), "--route", "all"]
        return self.cli_op("cli.b_higher", argv, fmt, check)

    def cli_a(self, N: int, fmt: str) -> Op:
        def check(doc) -> int:
            _columns(doc, ["N"] + [f"i={i}" for i in range(N + 1)] + ["agree"])
            _agree_column(doc)
            rows = []
            for k, row in enumerate(doc["rows"], start=1):
                require(row[0] == k, "row indices")
                require(all(c is None for c in row[k + 2:-1]), f"row {k} has cells past i={k}")
                rows.append(row[1:k + 2])
            require(len(rows) == N, f"{len(rows)} triangle rows for N={N}")
            return oracle.check_triangle(rows)

        return self.cli_op("cli.a", ["a", "--max-N", str(N), "--route", "all"], fmt, check)

    def cli_stirling(self, kind: str, n: int, fmt: str) -> Op:
        flag = "deg2" if kind == "deg2" else "scaled-deg2"

        def check(doc) -> int:
            _columns(doc, ["n"] + [f"k={k}" for k in range(n + 1)])
            rows = []
            for m, row in enumerate(doc["rows"]):
                require(row[0] == m and all(c is None for c in row[m + 2:]), "row shape")
                rows.append(row[1:m + 2])
            require(len(rows) == n + 1, "row count")
            return oracle.check_stirling(kind, rows, self.oracle)

        label = "cli.stirling.deg2" if kind == "deg2" else "cli.stirling.scaled"
        return self.cli_op(label, ["stirling", "--kind", flag, "--max-n", str(n)], fmt, check)

    def cli_classical(self, n: int, fmt: str) -> Op:
        def check(doc) -> int:
            _columns(doc, ["n", "limit", "stirling", "agree"])
            _agree_column(doc)
            top = 0
            for col in (1, 2):
                top = max(top, oracle.check_classical([_constant(row[col]) for row in doc["rows"]]))
            require(len(doc["rows"]) == n + 1, "row count")
            return top

        return self.cli_op("cli.classical", ["classical", "--max-n", str(n)], fmt, check)

    def malformed(self, rng: random.Random) -> list[str]:
        k = str(rng.randint(1, 9))
        return rng.choice([
            ["b", "--max-n", k, "--lambda", "0"],
            ["b", "--max-n", "-" + k],
            ["b", "--max-n", k, "--lambda", f"{k}.5"],
            ["a", "--max-N", k, "--lambda", f"0.{k}"],
            ["a", "--max-N", "0"],
            ["a", "--max-N", k, "--route", "falling", "--lambda", "0"],
            ["stirling", "--kind", "deg2", "--max-n", "-" + k],
            ["classical", "--max-n", "-" + k],
        ]) + ["--format", rng.choice(FORMATS)]

    def build(self, rng: random.Random) -> list[Op]:
        by_kind: dict[str, list[Op]] = {}
        by_kind["lib.series"] = [self.sym_row_op("lib.series", "series", n) for n in sizes(rng, self.SERIES)]
        by_kind["lib.recurrence"] = [self.sym_row_op("lib.recurrence", "recurrence", n)
                                     for n in sizes(rng, self.RECURRENCE)]
        by_kind["lib.explicit"] = [self.sym_row_op("lib.explicit", "explicit", n)
                                   for n in sizes(rng, self.EXPLICIT)]
        routes = [self.CLI_B_ROUTES[i % 3] for i in range(len(self.CLI_B))]
        by_kind["cli.b"] = [self.cli_b(n, route, fmt) for n, route, fmt in
                            zip(sizes(rng, self.CLI_B), routes, formats(rng, len(self.CLI_B)))]
        by_kind["cli.b_higher"] = [self.cli_b_higher(n, 2 + i % 2, fmt) for i, (n, fmt) in enumerate(
            zip(sizes(rng, self.CLI_B_HIGHER), formats(rng, len(self.CLI_B_HIGHER))))]
        by_kind["cli.a"] = [self.cli_a(N, fmt) for N, fmt in
                            zip(sizes(rng, self.CLI_A), formats(rng, len(self.CLI_A)))]
        by_kind["cli.stirling.deg2"] = [self.cli_stirling("deg2", n, fmt) for n, fmt in
                                        zip(sizes(rng, self.CLI_DEG2), formats(rng, len(self.CLI_DEG2)))]
        by_kind["cli.stirling.scaled"] = [self.cli_stirling("scaled", n, fmt) for n, fmt in
                                          zip(sizes(rng, self.CLI_SCALED), formats(rng, len(self.CLI_SCALED)))]
        by_kind["cli.classical"] = [self.cli_classical(n, fmt) for n, fmt in
                                    zip(sizes(rng, self.CLI_CLASSICAL), formats(rng, len(self.CLI_CLASSICAL)))]
        ops = [op for group in by_kind.values() for op in group]
        for kind, stratum in self.REPEATS:
            first = by_kind[kind][stratum]
            ops.append(Op(first.kind, first.key, first.run, first.check, first.failed))
        ops += [self.malformed_op(self.malformed(rng)) for _ in range(self.MALFORMED)]
        ops.append(self.malformed_op(list(BROKEN_REQUEST), KEPT_FAILURE))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return [self.sym_row_op("lib.series", "series", 3), self.cli_b(2, "explicit", "json"),
                self.cli_b_higher(2, 2, "csv"), self.cli_a(2, "latex"),
                self.cli_stirling("deg2", 2, "json"), self.cli_stirling("scaled", 2, "csv"),
                self.cli_classical(2, "latex"), self.malformed_op(["b", "--max-n", "-1"])]


# ---------------------------------------------------------------------------


class VerifyBattery(Workload):
    """Single identity reports of every family plus verify CLI documents:
    Laurent products and derivatives, the reconstruction sums and the
    coefficient triangle do the work."""

    name = "verify_battery"

    TRIANGLE_N = 12
    CTX_N, CTX_J = 5, 8
    # (N, order strata); the costly ones hold one value each
    ODE = [(1, (6, 7)), (1, (9, 10)), (2, (7, 8)), (2, (11, 12)), (3, (6, 6)), (3, (9, 9)),
           (4, (6, 6)), (4, (8, 8)), (5, (6, 6)), (5, (7, 7)), (2, (14, 14)), (6, (16, 16))]
    CONV = list(range(1, 13))
    EQ = [((1, 2), 8), ((2, 3), 10), ((3, 4), 12), ((4, 4), 14), ((5, 5), 16), ((6, 6), 18)]
    FAULTS = 3  # corrupted coefficient tables per family per round
    THM41 = 24  # N cycles through 1..CTX_N, j through THM41_J by fives
    THM41_J = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 8)]
    COR42 = 14
    ROUTES = {"a": [(2, 3), (3, 4), (5, 5)], "b": [(2, 3), (4, 4), (6, 6)],
              "bell": [(3, 4), (5, 5), (7, 7)], "stirling": [(3, 4), (5, 5), (7, 7)]}
    CLI_SUITES = ("ode", "cor34", "thm41", "cor42", "eq41", "eq42")

    def report_check(self, expect_pass: bool):
        def check(report) -> int:
            oracle.check_report(report.to_json_dict(), expect_pass)
            return 0
        return check

    def corrupted(self, table, N: int, i: int):
        """The table with entry (i, N) off by one."""
        rows = list(table.rows)
        row = list(rows[N])
        row[i] = row[i] + 1
        rows[N] = tuple(row)
        return self.lib.CoeffTable(table.domain, tuple(rows))

    def build(self, rng: random.Random) -> list[Op]:
        lib, V, sym = self.lib, self.lib.verify, self.lib.SYMBOLIC
        state: dict = {}

        def triangle():
            state["coeffs"] = lib.ode_coeffs.coeff_triangle(self.TRIANGLE_N, sym)
            return state["coeffs"]

        def check_triangle(table) -> int:
            return oracle.check_triangle([poly_lists(table.row(N)) for N in range(1, self.TRIANGLE_N + 1)])

        def context():
            state["ctx"] = V.HigherOrderContext(sym, self.CTX_N, self.CTX_J + self.CTX_N)
            return state["ctx"]

        def check_context(ctx) -> int:
            top = 0
            for r in range(1, self.CTX_N + 2):
                row = [list(ctx.b(r, idx).coeffs) for idx in range(ctx.max_index + 1)]
                top = max(top, oracle.check_sym_row(row, self.oracle, r))
            return top

        # the shared tables come first; every later operation reads them
        head = [Op("lib.triangle", ("triangle",), triangle, check_triangle),
                Op("verify.context", ("context",), context, check_context)]
        ops: list[Op] = []

        faults = set(rng.sample(range(len(self.ODE)), self.FAULTS))
        for idx, (N, orders) in enumerate(self.ODE):
            order = rng.randint(*orders)
            if idx in faults:
                i = rng.randint(0, N)
                run = lambda N=N, order=order, i=i: V.verify_ode(
                    N, order, sym, self.corrupted(state["coeffs"], N, i))
                ops.append(Op("verify.ode.corrupted", ("ode", N, order, i), run, self.report_check(False)))
            else:
                run = lambda N=N, order=order: V.verify_ode(N, order, sym, state["coeffs"])
                ops.append(Op("verify.ode", ("ode", N, order), run, self.report_check(True)))
        # entry (0, n) enters both sides of the identity with weight 1 and
        # cancels, and (n, n) is never read, so only rows n >= 2 at entries
        # 1..n-1 can be caught
        faults = set(rng.sample([i for i, n in enumerate(self.CONV) if n >= 2], self.FAULTS))
        for idx, n in enumerate(self.CONV):
            if idx in faults:
                i = rng.randint(1, n - 1)
                run = lambda n=n, i=i: V.verify_convolution(n, sym, self.corrupted(state["coeffs"], n, i))
                ops.append(Op("verify.cor34.corrupted", ("cor34", n, i), run, self.report_check(False)))
            else:
                run = lambda n=n: V.verify_convolution(n, sym, state["coeffs"])
                ops.append(Op("verify.cor34", ("cor34", n), run, self.report_check(True)))
        for which in ("eq41", "eq42"):
            for N_range, order in self.EQ:
                N = rng.randint(*N_range)
                run = lambda N=N, order=order, which=which: V.verify_classical_derivative(N, order, which)
                ops.append(Op("verify." + which, (which, N, order), run, self.report_check(True)))
        for k in range(self.THM41):
            N = 1 + k % self.CTX_N
            j = rng.randint(*self.THM41_J[k // self.CTX_N])
            run = lambda j=j, N=N: V.verify_higher_order(j, N, sym, state["ctx"])
            ops.append(Op("verify.thm41", ("thm41", j, N), run, self.report_check(True)))
        for k in range(self.COR42):
            N = 2 + k % (self.CTX_N - 1)
            j = -rng.randint(1, N - 1)
            run = lambda j=j, N=N: V.verify_singular(j, N, sym, state["ctx"])
            ops.append(Op("verify.cor42", ("cor42", j, N), run, self.report_check(True)))
        for suite, strata in self.ROUTES.items():
            for n in sizes(rng, strata):
                if suite == "a":
                    run = lambda n=n: V.verify_route_agreement_a(n, sym)
                elif suite == "b":
                    run = lambda n=n: V.verify_route_agreement_b(n, sym)
                elif suite == "bell":
                    run = lambda n=n: V.verify_route_agreement_bell(n)
                else:
                    run = lambda n=n: V.verify_route_agreement_stirling(n, sym)
                ops.append(Op("verify.routes." + suite, ("routes", suite, n), run, self.report_check(True)))
        fmts = formats(rng, 2 * len(self.CLI_SUITES))
        for i, suite in enumerate(self.CLI_SUITES * 2):
            ops.append(self.cli_verify(rng, suite, i // len(self.CLI_SUITES), fmts[i]))
        rng.shuffle(ops)
        return head + ops

    def cli_verify(self, rng: random.Random, suite: str, stratum: int, fmt: str) -> Op:
        """A verify document; stratum 0 is the small request of its suite,
        stratum 1 the large one."""
        argv = ["verify", "--suite", suite]
        if suite == "ode":
            max_N, order = ((2, rng.randint(6, 8)), (3, 7))[stratum]
            argv += ["--max-N", str(max_N), "--order", str(order)]
            expected = [("ode_family", {"N": N}) for N in range(1, max_N + 1)]
        elif suite == "cor34":
            max_N = rng.randint(*((4, 6), (9, 10))[stratum])
            argv += ["--max-N", str(max_N)]
            expected = [("cor_3_4", {"n": n}) for n in range(1, max_N + 1)]
        elif suite == "thm41":
            max_N, max_j = ((2, rng.randint(2, 3)), (3, 4))[stratum]
            argv += ["--max-N", str(max_N), "--max-j", str(max_j)]
            expected = [("thm_4_1", {"j": j, "N": N}) for N in range(1, max_N + 1) for j in range(max_j + 1)]
        elif suite == "cor42":
            max_N = rng.randint(*((3, 4), (5, 5))[stratum])
            argv += ["--max-N", str(max_N)]
            expected = [("cor_4_2", {"j": j, "N": N}) for N in range(2, max_N + 1) for j in range(-(N - 1), 0)]
        else:
            max_N = rng.randint(*((3, 4), (6, 6))[stratum])
            argv += ["--max-N", str(max_N)]
            ident = "eq_41" if suite == "eq41" else "eq_42"
            expected = [(ident, {"N": N}) for N in range(1, max_N + 1)]

        def check(res: CliResult) -> int:
            require(res.code == 0 and res.stderr == "", f"{argv}: exit {res.code}")
            got = _parse_reports(fmt, res.stdout)
            require(len(got) == len(expected), f"{argv}: {len(got)} reports, want {len(expected)}")
            for (ident, params, verdict), (want_ident, want_params) in zip(got, expected):
                require(ident == want_ident, f"{argv}: identity {ident} != {want_ident}")
                for key, value in want_params.items():
                    require(str(params.get(key)) == str(value), f"{argv}: {key}={params.get(key)}")
                require(verdict == "pass", f"{argv}: {ident} {params} {verdict}")
            return 0

        argv += ["--format", fmt]
        cli = self.lib.cli
        return Op("cli.verify." + suite, ("cli", *argv), lambda: call_cli(cli, argv), check,
                  lambda res: res.code not in (0, 1))

    def warmup(self) -> list[Op]:
        rng = random.Random("warmup")
        return [self.cli_verify(rng, suite, 0, fmt) for suite, fmt in
                zip(self.CLI_SUITES, FORMATS * 2)]


def _parse_reports(fmt: str, text: str) -> list[tuple[str, dict, str]]:
    """(identity, parameters, verdict) of every report in a verify document."""
    if fmt == "json":
        doc = json.loads(text)
        require(doc["payload"]["all_pass"] is True, "all_pass is not true")
        out = []
        for rep in doc["payload"]["reports"]:
            oracle.check_report(rep)
            out.append((rep["identity"], rep["parameters"], rep["verdict"]))
        return out
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(text)))
        require(table[0] == ["identity", "parameters", "verdict", "witness"], "csv header")
        sep, rows = ";", [(r[0], r[1], r[2]) for r in table[1:]]
    else:
        lines = text.rstrip("\n").split("\n")
        require(lines[-1] == "\\end{tabular}", "latex table not closed")
        body = lines[lines.index("\\hline") + 1:-1]
        rows = []
        for line in body:
            require(line.endswith(" \\\\"), "latex row not terminated")
            ident, params, verdict = line[:-3].split(" & ")
            rows.append((ident.replace("\\_", "_"), params.replace("\\_", "_"), verdict))
        sep = "; "
    out = []
    for ident, params, verdict in rows:
        pairs = dict(p.split("=", 1) for p in params.split(sep)) if params else {}
        out.append((ident, pairs, verdict))
    return out


# ---------------------------------------------------------------------------


class RationalLambda(Workload):
    """Evaluated rows at a fresh seeded rational λ per request, with no
    Q[λ] ring and no repeats: the composition walk and Fraction arithmetic
    do the work."""

    name = "rational_lambda"

    # (numerator bits, denominator bits) of λ; every kind sweeps all classes
    HEIGHTS = [(3, 3), (5, 4), (8, 6), (12, 10), (18, 14), (24, 20)]
    # (kind, n strata); stratum i uses height class i % len(HEIGHTS)
    KINDS = [
        ("lib.multinomial", [(4, 5), (6, 7), (8, 9), (9, 10), (10, 11), (11, 11),
                             (12, 12), (12, 12), (12, 13), (13, 13), (13, 13), (14, 14)]),
        ("lib.series", [(20, 21), (22, 23), (24, 25), (26, 27), (28, 29), (30, 31), (32, 33),
                        (34, 35), (36, 37), (38, 39), (40, 41), (42, 43), (44, 45), (46, 47),
                        (48, 49), (50, 51), (54, 55), (58, 59), (62, 63), (66, 67)]),
        ("lib.recurrence", [(20, 21), (22, 23), (24, 25), (26, 27), (28, 29), (30, 31),
                            (32, 33), (34, 35), (36, 37), (38, 39), (40, 41), (42, 43),
                            (44, 45), (46, 47), (48, 49), (51, 52), (54, 55), (57, 58)]),
        ("lib.explicit.a_form", [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
                                 (10, 11), (11, 12), (12, 13), (13, 14), (14, 15), (15, 16)]),
        ("lib.explicit.stirling_form", [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 9),
                                        (10, 10), (10, 10), (11, 11), (12, 12)]),
        ("lib.explicit.falling_form", [(4, 5), (5, 5), (6, 6), (6, 7), (7, 7), (7, 8),
                                       (8, 8), (8, 9), (9, 9), (10, 10)]),
        ("cli.b_all", [(3, 4), (4, 5), (5, 6), (5, 6), (6, 7), (6, 7), (7, 8), (7, 8), (8, 9),
                       (8, 9), (9, 10), (9, 10), (10, 10), (10, 11), (11, 11), (11, 12),
                       (12, 12), (12, 12)]),
    ]

    TRIES = 16  # draws from a height class before its numerator is widened

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed)
        self.seen: set = set()

    def fresh_lambda(self, rng: random.Random, height: tuple[int, int], key) -> Fraction:
        """A λ of the given bit heights that no earlier request of this
        run used with the same kind and size.

        The smallest class holds only 26 values, so a long run uses it
        up for a key with a single size; after ``TRIES`` draws that all
        hit used values the numerator gets one more bit, which always
        leaves fresh values to draw."""
        nb, db = height
        while True:
            for _ in range(self.TRIES):
                lam = Fraction(rng.randint(1 << (nb - 1), (1 << nb) - 1),
                               rng.randint(1 << (db - 1), (1 << db) - 1))
                if rng.random() < 0.5:
                    lam = -lam
                if (key, lam) not in self.seen:
                    self.seen.add((key, lam))
                    return lam
            nb += 1

    def lib_op(self, kind: str, n: int, lam: Fraction) -> Op:
        B = self.lib.bernoulli
        dom = self.lib.EvaluatedDomain(lam)
        if kind == "lib.multinomial":
            run = lambda: B.row_via_multinomial(n, dom)
        elif kind == "lib.series":
            run = lambda: B.row_via_series(n, dom)
        elif kind == "lib.recurrence":
            run = lambda: B.row_via_recurrence(n, dom)
        else:
            form = kind.rsplit(".", 1)[1]
            run = lambda: B.row_via_explicit(n, dom, form)

        def check(row) -> int:
            require(len(row.values) == n + 1, f"{kind} row has {len(row.values)} values")
            return oracle.check_eval_row(row.values, lam)

        return Op(kind, (kind, n, lam), run, check)

    def cli_b_all(self, n: int, lam: Fraction, fmt: str) -> Op:
        routes = ["series", "recurrence", "multinomial", "explicit"]

        def check(doc) -> int:
            _columns(doc, ["n"] + routes + ["agree"])
            _agree_column(doc)
            if doc["meta"] is not None:
                require(doc["meta"]["lambda"] == str(lam), f"lambda {doc['meta']['lambda']} != {lam}")
            require(len(doc["rows"]) == n + 1, "row count")
            top = 0
            for col in range(1, 5):
                top = max(top, oracle.check_eval_row([_constant(row[col]) for row in doc["rows"]], lam))
            return top

        argv = ["b", "--max-n", str(n), f"--lambda={lam}", "--route", "all"]
        return self.cli_op("cli.b_all", argv, fmt, check)

    def build(self, rng: random.Random) -> list[Op]:
        ops = []
        for kind, strata in self.KINDS:
            fmts = formats(rng, len(strata))
            for i, n in enumerate(sizes(rng, strata)):
                lam = self.fresh_lambda(rng, self.HEIGHTS[i % len(self.HEIGHTS)], (kind, n))
                ops.append(self.cli_b_all(n, lam, fmts[i]) if kind == "cli.b_all"
                           else self.lib_op(kind, n, lam))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        lam = Fraction(7, 5)
        return [self.lib_op(kind, 3, lam) for kind, _ in self.KINDS[:-1]] + [
            self.cli_b_all(3, lam, fmt) for fmt in FORMATS]


WORKLOADS = {cls.name: cls for cls in (SymTables, VerifyBattery, RationalLambda)}
