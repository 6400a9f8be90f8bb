"""Command-line front end: exact tables in JSON/CSV/LaTeX and identity
verification runs.

Every command emits a single OutputDocument.  Documents are
byte-deterministic: dict insertion order is fixed by construction, and
no timestamps or environment data are included.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, bernoulli, ode_coeffs
from .scalars import (
    EvaluatedDomain,
    Rational,
    domain_from_string,
    scalar_to_json,
    scalar_to_latex,
    scalar_to_text,
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


def cell_to_json(cell):
    if cell is None or isinstance(cell, bool):
        return cell
    if isinstance(cell, int):
        return cell
    return scalar_to_json(cell)


def cell_to_text(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, int):
        return str(cell)
    return scalar_to_text(cell)


def cell_to_latex(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return r"\mathrm{true}" if cell else r"\mathrm{false}"
    if isinstance(cell, int):
        return str(cell)
    return scalar_to_latex(cell)


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
    body = dict(doc)
    payload = dict(doc["payload"])
    if "rows" in payload:
        payload["rows"] = [
            [cell_to_json(c) for c in row] for row in payload["rows"]
        ]
    body["payload"] = payload
    out: list[str] = []
    _write_json(body, "", out)
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


def emit_csv(doc: dict) -> str:
    payload = doc["payload"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    if "reports" in payload:
        writer.writerow(["identity", "parameters", "verdict", "witness"])
        for rep in payload["reports"]:
            params = ";".join(f"{k}={v}" for k, v in rep["parameters"].items())
            witness = (
                json.dumps(rep["witness"], separators=(",", ":"))
                if rep["witness"] is not None
                else ""
            )
            writer.writerow([rep["identity"], params, rep["verdict"], witness])
    else:
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([cell_to_text(c) for c in row])
    return buf.getvalue()


def _latex_escape(name: str) -> str:
    return name.replace("_", r"\_")


def emit_latex(doc: dict) -> str:
    payload = doc["payload"]
    lam = doc["lambda"]
    head = [
        f"% degenbern {__version__}",
        f"% command: {' '.join(doc['command'])}",
        f"% lambda: {lam if lam is not None else '-'}"
        + (f", order: {doc['order']}" if doc["order"] is not None else ""),
    ]
    lines = list(head)
    if "reports" in payload:
        lines.append(r"\begin{tabular}{lll}")
        lines.append(r"identity & parameters & verdict \\")
        lines.append(r"\hline")
        for rep in payload["reports"]:
            params = "; ".join(f"{k}={v}" for k, v in rep["parameters"].items())
            lines.append(
                f"{_latex_escape(rep['identity'])} & {_latex_escape(params)}"
                f" & {rep['verdict']} \\\\"
            )
        lines.append(r"\end{tabular}")
    else:
        cols = payload["columns"]
        lines.append(r"\begin{tabular}{" + "l" * len(cols) + "}")
        lines.append(" & ".join(_latex_escape(c) for c in cols) + r" \\")
        lines.append(r"\hline")
        for row in payload["rows"]:
            lines.append(" & ".join(cell_to_latex(c) for c in row) + r" \\")
        lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def emit(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return emit_json(doc)
    if fmt == "csv":
        return emit_csv(doc)
    if fmt == "latex":
        return emit_latex(doc)
    raise CLIError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommands


def _agree_rows(columns_values: list, max_n: int) -> tuple[list, bool]:
    """Rows [n, values..., agree] for n = 0..max_n, where agree says every
    route's value equals the first one's, and whether all rows agree."""
    rows = []
    for n in range(max_n + 1):
        values = [vals[n] for vals in columns_values]
        rows.append([n, *values, all(v == values[0] for v in values[1:])])
    return rows, all(row[-1] for row in rows)


def run_b(args, command: list[str]) -> tuple[dict, int]:
    domain = domain_from_string(args.lam)
    max_n, r, route = args.max_n, args.order_r, args.route
    # routes are looked up at call time, so a rebound one is the one run
    if r == 1:
        names = ["series", "recurrence", "multinomial", "explicit"] if route == "all" else [route]
        columns_values = [
            getattr(bernoulli, "row_via_" + name)(max_n, domain).values for name in names
        ]
    elif route in ("series", "all"):
        names = ["series", "convolution"] if route == "all" else ["series"]
        columns_values = [bernoulli.row_higher_order(r, max_n, domain).values]
        if route == "all":
            columns_values.append(bernoulli.convolution_row(r, max_n, domain).values)
    else:
        raise CLIError(
            "for --order-r other than 1 only the series route (and its "
            "convolution cross-check via --route all) is defined"
        )
    with_agree = len(names) > 1
    if with_agree:
        rows, all_agree = _agree_rows(columns_values, max_n)
    else:
        rows = [[n, value] for n, value in enumerate(columns_values[0])]
    payload = {
        "kind": "bernoulli_second_kind",
        "order_r": r,
        "columns": ["n"] + names + (["agree"] if with_agree else []),
        "rows": rows,
    }
    if with_agree:
        payload["all_agree"] = all_agree
    doc = make_document(command, domain.describe(), max_n + 1, payload)
    return doc, 0


def run_a(args, command: list[str]) -> tuple[dict, int]:
    domain = domain_from_string(args.lam)
    max_N = args.max_N
    if max_N < 1:
        raise CLIError("--max-N must be at least 1")
    route = args.route
    with_agree = route == "all"
    names = [route]
    if with_agree:
        names = ["recurrence", "stirling"] + ([] if domain.lam_is_zero else ["falling"])

    def row_route(name: str):
        if name == "recurrence":
            table = ode_coeffs.coeff_triangle(max_N, domain)
            return lambda N, _: table.row(N)
        return getattr(ode_coeffs, "coeff_explicit_" + name)

    routes = [row_route(name) for name in names]

    def build_row(N: int):
        values, *others = [row_of(N, domain) for row_of in routes]
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
        if domain.lam_is_zero:
            payload["notes"] = [
                "falling route skipped: undefined at lambda = 0"
            ]
    doc = make_document(command, domain.describe(), None, payload)
    return doc, 0


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
    doc = make_document(command, lam_desc, None, payload)
    return doc, 0


def run_classical(args, command: list[str]) -> tuple[dict, int]:
    max_n = args.max_n
    values = [bernoulli.classical_row(max_n, route=r) for r in ("limit", "stirling")]
    rows, all_agree = _agree_rows(values, max_n)
    payload = {
        "kind": "classical_bernoulli_second_kind",
        "columns": ["n", "limit", "stirling", "agree"],
        "rows": rows,
        "all_agree": all_agree,
    }
    doc = make_document(command, "0", max_n + 1, payload)
    return doc, 0


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
    doc = make_document(command, domain.describe(), order, payload)
    return doc, 0 if all_pass else 1


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
    p_b.add_argument(
        "--route",
        choices=("series", "recurrence", "multinomial", "explicit", "all"),
        default="series",
    )
    _add_common(p_b)

    p_a = sub.add_parser("a", help="derivative-coefficient triangle")
    p_a.add_argument("--max-N", dest="max_N", type=int, required=True)
    p_a.add_argument(
        "--route",
        choices=("recurrence", "falling", "stirling", "all"),
        default="recurrence",
    )
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
