"""Command-line front end: exact tables in JSON/CSV/LaTeX and identity
verification runs.

Every command emits a single OutputDocument.  Documents are
byte-deterministic: dict insertion order is fixed by construction, and
no timestamps or environment data are included.  CSV and LaTeX render
every document from one grid, columns plus rows of rendered cells: a
table's own, or one row per report of a verification run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, bernoulli, scalars, verify
from .scalars import (
    EvaluatedDomain,
    Rational,
    domain_from_string,
)
from .combinatorics import (
    degenerate_stirling2,
    scaled_stirling_triangle,
    stirling1_signed,
)
from .verify import SUITES, default_order, suite_reports, verify_all


class CLIError(Exception):
    """Flag combinations the library cannot honor."""


# ---------------------------------------------------------------------------
# cells and emitters

# per format: how a None, a False and a True cell read, what an int
# becomes, and the name of the scalar renderer in the scalars module,
# looked up once per row so that a rebound renderer is the one called
_CELL_FORMS = {
    "json": (None, False, True, int, "scalar_to_json"),
    "csv": ("", "false", "true", str, "scalar_to_text"),
    "latex": ("", r"\mathrm{false}", r"\mathrm{true}", str, "scalar_to_latex"),
}


def _render_row(row: list, fmt: str) -> list:
    """Each cell of a table row as format fmt writes it."""
    none, false, true, whole, name = _CELL_FORMS[fmt]
    scalar = getattr(scalars, name)
    return [none if cell is None else (true if cell else false) if isinstance(cell, bool)
            else whole(cell) if isinstance(cell, int) else scalar(cell) for cell in row]


def make_document(command: list[str], lam_desc, order, payload: dict) -> dict:
    return {
        "schema_version": 1,
        "generator": {"name": "degenbern", "version": __version__},
        "command": command,
        "lambda": lam_desc,
        "order": order,
        "payload": payload,
    }


def emit_json(doc: dict) -> str:
    payload = doc["payload"]
    if "rows" in payload:
        payload = {**payload, "rows": [_render_row(row, "json") for row in payload["rows"]]}
    out: list[str] = []
    _write_json({**doc, "payload": payload}, "", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, indent: str, out: list) -> None:
    """Append value to out laid out as json.dumps(value, indent=2) lays
    it out.

    With an indent the standard library encodes in pure Python, and its
    nested closures leave reference cycles behind on every call; here
    only the containers are laid out in Python and each leaf goes to
    json.dumps without an indent, which uses the C encoder."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        sep = "{\n"
        for key, item in value.items():
            out.append(f"{sep}{inner}{json.dumps(key)}: ")
            _write_json(item, inner, out)
            sep = ",\n"
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "[\n"
        for item in value:
            out.append(sep + inner)
            _write_json(item, inner, out)
            sep = ",\n"
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))


def _latex_escape(name: str) -> str:
    return name.replace("_", r"\_")


def _grid(payload: dict, fmt: str) -> tuple[list, list]:
    """The columns and the rows of rendered cells that the CSV or LaTeX
    emitter lays out: a table's own, or one row per verification report
    (identity, parameters, verdict and, in CSV, the witness as compact
    JSON)."""
    if "reports" not in payload:
        return payload["columns"], [_render_row(row, fmt) for row in payload["rows"]]
    latex = fmt == "latex"
    escape, sep = (_latex_escape, "; ") if latex else (str, ";")
    rows = []
    for rep in payload["reports"]:
        params = sep.join(f"{k}={v}" for k, v in rep["parameters"].items())
        row = [escape(rep["identity"]), escape(params), rep["verdict"]]
        if not latex:
            witness = rep["witness"]
            row.append("" if witness is None else json.dumps(witness, separators=(",", ":")))
        rows.append(row)
    return ["identity", "parameters", "verdict", "witness"][:3 if latex else 4], rows


def emit_csv(doc: dict) -> str:
    columns, rows = _grid(doc["payload"], "csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerows([columns, *rows])
    return buf.getvalue()


# each character str.splitlines ends a line at, as its escape sequence
_LINE_BREAKS = str.maketrans(
    {c: c.encode("unicode_escape").decode() for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def emit_latex(doc: dict) -> str:
    columns, rows = _grid(doc["payload"], "latex")
    lam, order = doc["lambda"], doc["order"]
    lines = [
        f"% degenbern {__version__}",
        # escaped, so that every header line stays a comment
        f"% command: {' '.join(doc['command']).translate(_LINE_BREAKS)}",
        f"% lambda: {lam if lam is not None else '-'}"
        + (f", order: {order}" if order is not None else ""),
        *[f"% note: {note}" for note in doc["payload"].get("notes", ())],
        r"\begin{tabular}{" + "l" * len(columns) + "}",
        " & ".join(map(_latex_escape, columns)) + r" \\",
        r"\hline",
        *[" & ".join(row) + r" \\" for row in rows],
        r"\end{tabular}",
    ]
    return "\n".join(lines) + "\n"


def emit(doc: dict, fmt: str) -> str:
    if fmt not in _CELL_FORMS:
        raise CLIError(f"unknown format {fmt!r}")
    return globals()["emit_" + fmt](doc)


# ---------------------------------------------------------------------------
# subcommands


def _route_rows(names, values: list) -> dict:
    """The columns and the rows [n, one value per route] for n = 0, 1, ...
    of the routes' rows; when more than one route ran, also an agree
    column, saying a row's values equal the first route's, and all_agree."""
    rows = [[n, *row] for n, row in enumerate(zip(*values, strict=True))]
    if len(names) == 1:
        return {"columns": ["n", *names], "rows": rows}
    for row in rows:
        row.append(all(value == row[1] for value in row[2:]))
    return {"columns": ["n", *names, "agree"], "rows": rows,
            "all_agree": all(row[-1] for row in rows)}


def _offered(table, route: str) -> list:
    """The entries of a route table that ``--route route`` runs: every
    one the CLI offers for "all", else the one it names."""
    return [entry for entry in table if entry.cli and route in ("all", entry.column)]


def run_b(args, command: list[str]) -> tuple[dict, int]:
    domain = domain_from_string(args.lam)
    max_n, r, route = args.max_n, args.order_r, args.route
    # the order-r routes take r before the size
    table, lead = (verify.B_ROUTES, ()) if r == 1 else (verify.ORDER_R_ROUTES, (r,))
    routes = _offered(table, route)
    if not routes:
        reference, *checks = [entry.column for entry in verify.ORDER_R_ROUTES]
        raise CLIError(
            f"for --order-r other than 1 only the {reference} route (and its "
            f"{' and '.join(checks)} cross-check via --route all) is defined"
        )
    # refused before any route runs, as the capped route would refuse it
    for entry in routes:
        if entry.cap is not None:
            bernoulli.check_cap(entry.name, max_n, entry.cap)
    values = [entry.compute(*lead, max_n, domain).values for entry in routes]
    payload = {"kind": "bernoulli_second_kind", "order_r": r,
               **_route_rows([entry.column for entry in routes], values)}
    return make_document(command, domain.describe(), max_n + 1, payload), 0


def run_a(args, command: list[str]) -> tuple[dict, int]:
    domain = domain_from_string(args.lam)
    max_N = args.max_N
    if max_N < 1:
        raise CLIError("--max-N must be at least 1")
    route = args.route
    with_agree = route == "all"
    routes, skipped = _offered(verify.A_ROUTES, route), []
    if with_agree:
        routes, skipped = verify.defined_routes(routes, domain)

    # the reference builds the whole triangle, the other routes row N
    row_routes = [entry.compute(max_N, domain).row if entry is verify.A_ROUTES[0]
                  else (lambda N, entry=entry: entry.compute(N, domain)) for entry in routes]

    def build_row(N: int):
        values, *others = [row_of(N) for row_of in row_routes]
        row = [N, *values] + [None] * (max_N - N)
        if with_agree:
            row.append(all(other == values for other in others))
        return row

    rows = [build_row(N) for N in range(1, max_N + 1)]
    columns = ["N"] + [f"i={i}" for i in range(max_N + 1)]
    if with_agree:
        columns.append("agree")
    payload = {
        "kind": "derivative_coefficients",
        "route": route,
        "columns": columns,
        "rows": rows,
    }
    if with_agree:
        payload["all_agree"] = all(row[-1] for row in rows)
        if skipped:
            payload["notes"] = [
                f"{name} route skipped: undefined at lambda = 0" for name in skipped
            ]
    return make_document(command, domain.describe(), None, payload), 0


def run_stirling(args, command: list[str]) -> tuple[dict, int]:
    max_n = args.max_n
    kind = args.kind
    if kind == "first":
        # as rationals, since the JSON emitter writes ints as numbers
        triangle = [map(Rational, row) for row in stirling1_signed(max_n).rows]
        lam_desc = None
    else:
        build = degenerate_stirling2 if kind == "deg2" else scaled_stirling_triangle
        triangle = build(max_n, domain_from_string("sym")).rows
        lam_desc = "sym"
    rows = [[n, *row] + [None] * (max_n - n) for n, row in enumerate(triangle)]
    payload = {
        "kind": f"stirling_{kind.replace('-', '_')}",
        "columns": ["n"] + [f"k={k}" for k in range(max_n + 1)],
        "rows": rows,
    }
    return make_document(command, lam_desc, None, payload), 0


def run_classical(args, command: list[str]) -> tuple[dict, int]:
    max_n = args.max_n
    routes = ("limit", "stirling")
    values = [bernoulli.classical_row(max_n, route=r) for r in routes]
    payload = {"kind": "classical_bernoulli_second_kind", **_route_rows(routes, values)}
    return make_document(command, "0", max_n + 1, payload), 0


def run_verify(args, command: list[str]) -> tuple[dict, int]:
    suite = args.suite
    if suite in ("eq41", "eq42"):
        # the classical derivative expansions exist at lambda = 0 only
        domain = EvaluatedDomain(0)
        if args.lam is not None and domain_from_string(args.lam) != domain:
            raise CLIError(f"the {suite} suite is computed at lambda = 0 only")
    else:
        domain = domain_from_string("sym" if args.lam is None else args.lam)
    max_N = args.max_N
    order = default_order(max_N, max_N) if args.order is None else args.order
    if suite == "all":
        reports = verify_all(max_N, max_N, order, domain, args.max_j)
    else:
        reports = suite_reports((suite,), domain, max_N, max_N, order, args.max_j)
    all_pass = all(r.verdict for r in reports)
    payload = {
        "kind": "verification",
        "suite": suite,
        "reports": [r.to_json_dict() for r in reports],
        "all_pass": all_pass,
    }
    return make_document(command, domain.describe(), order, payload), 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser and entry point


def _add_common(p: argparse.ArgumentParser, with_lambda: bool = True) -> None:
    if with_lambda:
        p.add_argument(
            "--lambda",
            dest="lam",
            default="sym",
            help='deformation parameter: "sym" or a rational like "1/2"',
        )
    p.add_argument(
        "--format",
        choices=("json", "csv", "latex"),
        default="json",
        help="output format (default json)",
    )


def _route_choices(table) -> tuple:
    return (*[entry.column for entry in _offered(table, "all")], "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenbern",
        description=(
            "Exact tables of deformed Bernoulli numbers of the second kind, "
            "their coefficient triangles, and mechanical identity checks."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"degenbern {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_b = sub.add_parser("b", help="deformed Bernoulli rows b^(r)_n")
    p_b.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_b.add_argument("--order-r", dest="order_r", type=int, default=1)
    p_b.add_argument("--route", choices=_route_choices(verify.B_ROUTES),
                     default=verify.B_ROUTES[0].column)
    _add_common(p_b)

    p_a = sub.add_parser("a", help="derivative-coefficient triangle")
    p_a.add_argument("--max-N", dest="max_N", type=int, required=True)
    p_a.add_argument("--route", choices=_route_choices(verify.A_ROUTES),
                     default=verify.A_ROUTES[0].column)
    _add_common(p_a)

    p_s = sub.add_parser("stirling", help="Stirling-type triangles")
    p_s.add_argument(
        "--kind", choices=("first", "deg2", "scaled-deg2"), required=True
    )
    p_s.add_argument("--max-n", dest="max_n", type=int, required=True)
    _add_common(p_s, with_lambda=False)

    p_c = sub.add_parser(
        "classical", help="classical Bernoulli numbers of the second kind"
    )
    p_c.add_argument("--max-n", dest="max_n", type=int, required=True)
    _add_common(p_c, with_lambda=False)

    p_v = sub.add_parser("verify", help="identity verification suites")
    p_v.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="all",
    )
    p_v.add_argument("--max-N", dest="max_N", type=int, default=8)
    p_v.add_argument("--max-j", dest="max_j", type=int, default=8)
    p_v.add_argument("--order", type=int, default=None)
    _add_common(p_v)
    # lam None means --lambda was not given: symbolic, or 0 for eq41/eq42
    p_v.set_defaults(lam=None)

    return parser


def _logical_command(argv: list[str]) -> list[str]:
    """The command echoed into documents."""
    return list(argv)


# built by the first main call and kept: a parser holds reference
# cycles, so one per call would leave garbage for the cyclic collector
_parser = None


def main(argv=None) -> int:
    global _parser
    raw = list(sys.argv[1:] if argv is None else argv)
    command = _logical_command(raw)
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(raw)
    # looked up at call time, so a rebound run_* function is the one run
    runner = globals()["run_" + args.subcommand]
    try:
        doc, code = runner(args, command)
        sys.stdout.write(emit(doc, args.format))
        return code
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        # a size whose tables do not fit in memory, or in an index
        sizes = ", ".join(
            f"--{name.replace('_', '-')} {value}"
            for name in ("max_n", "max_N", "order_r", "max_j", "order")
            if (value := getattr(args, name, None)) is not None
        )
        print(f"error: {sizes}: too large to compute ({type(exc).__name__})",
              file=sys.stderr)
        return 2
