"""Independent reference values and output checkers for the benchmark.

Nothing here imports degenbern.  Every reference value comes from plain
``fractions.Fraction`` arithmetic on the defining generating functions
or recurrences, and every document is decoded by parsers written here,
so a checker that accepts an output has compared it with a computation
that shares no code with the program.

Each ``check_*`` function returns the largest numerator or denominator
bit length it saw in the output (the ``scalars.coeff_bits_max`` layer
metric) and raises :class:`CheckFailed` on the first disagreement.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction


class CheckFailed(AssertionError):
    """An output disagrees with the independent reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reference values


def log_over_t(lam: Fraction, order: int) -> list[Fraction]:
    """((1+t)^λ - 1)/(λ t) as [t^m] = (λ-1)(λ-2)...(λ-m) / ((m+1) m!).

    The product form has no division by λ, so λ = 0 gives log(1+t)/t.
    """
    out = []
    prod = Fraction(1)
    for m in range(order):
        if m:
            prod *= lam - m
        out.append(prod / ((m + 1) * math.factorial(m)))
    return out


def series_inverse(cs: list[Fraction]) -> list[Fraction]:
    inv = [1 / cs[0]]
    for n in range(1, len(cs)):
        acc = sum((cs[k] * inv[n - k] for k in range(1, n + 1)), Fraction(0))
        inv.append(-acc * inv[0])
    return inv


def series_power(cs: list[Fraction], r: int) -> list[Fraction]:
    out = [Fraction(1)] + [Fraction(0)] * (len(cs) - 1)
    for _ in range(r):
        out = [
            sum((out[i] * cs[n - i] for i in range(n + 1)), Fraction(0))
            for n in range(len(cs))
        ]
    return out


def bernoulli_row(lam: Fraction, n_max: int, r: int = 1) -> list[Fraction]:
    """n! [t^n] (t / deformed-log(1+t))^r for n = 0..n_max at λ = lam."""
    body = series_inverse(log_over_t(Fraction(lam), n_max + 1))
    if r > 1:
        body = series_power(body, r)
    return [body[n] * math.factorial(n) for n in range(n_max + 1)]


def cauchy_numbers(n_max: int) -> list[Fraction]:
    """n! [t^n] t/log(1+t), from log(1+t)/t = sum (-1)^m t^m / (m+1)."""
    cs = [Fraction((-1) ** m, m + 1) for m in range(n_max + 1)]
    body = series_inverse(cs)
    return [body[n] * math.factorial(n) for n in range(n_max + 1)]


def stirling1(n_max: int) -> list[list[int]]:
    """Signed first kind: s(n+1, k) = s(n, k-1) - n s(n, k)."""
    rows = [[1]]
    for n in range(n_max):
        prev = rows[-1] + [0]
        rows.append([(prev[k - 1] if k else 0) - n * prev[k] for k in range(n + 2)])
    return rows


def deg_stirling2_at(lam: Fraction, n_max: int) -> list[list[Fraction]]:
    """Degenerate second kind at λ: S(n+1, k) = S(n, k-1) + (k - nλ) S(n, k)."""
    rows = [[Fraction(1)]]
    for n in range(n_max):
        prev = rows[-1] + [Fraction(0)]
        rows.append(
            [(prev[k - 1] if k else 0) + (k - n * lam) * prev[k] for k in range(n + 2)]
        )
    return rows


def scaled_stirling_at(lam: Fraction, n_max: int) -> list[list[Fraction]]:
    """λ^(n-k) S_(1/λ)(n, k): T(n+1, k) = T(n, k-1) + (kλ - n) T(n, k)."""
    rows = [[Fraction(1)]]
    for n in range(n_max):
        prev = rows[-1] + [Fraction(0)]
        rows.append(
            [(prev[k - 1] if k else 0) + (k * lam - n) * prev[k] for k in range(n + 2)]
        )
    return rows


def triangle_entry_at(i: int, N: int, p: int) -> Fraction:
    """Entry (i, N) of the coefficient triangle at the integer λ = p > 0,
    from the closed form (-1)^N p^(-i) sum_{k=i}^{N} sum_{l=0}^{k}
    (-1)^l C(k,i) C(k,l) (p l)_N, with (x)_N the falling factorial."""
    acc = 0
    for k in range(i, N + 1):
        cki = math.comb(k, i)
        for l in range(k + 1):
            term = cki * math.comb(k, l) * math.perm(p * l, N)
            acc += -term if l % 2 else term
    value = Fraction(acc, p**i)
    return -value if N % 2 else value


class RowOracle:
    """Memoized reference rows at fixed points λ = 0, 1, 2, ...

    A λ-polynomial of degree at most n that agrees with the reference at
    n + 2 distinct points is the reference polynomial, so the symbolic
    checks evaluate at the integers 0..n+1 and compare with these rows.
    """

    def __init__(self):
        self._rows: dict[tuple[int, int], list[Fraction]] = {}
        self._stirling: dict[tuple[str, int], list[list[Fraction]]] = {}

    def row(self, point: int, r: int, n_max: int) -> list[Fraction]:
        have = self._rows.get((point, r))
        if have is None or len(have) <= n_max:
            # grow in steps so a long tail of sizes costs few rebuilds
            have = bernoulli_row(Fraction(point), max(n_max, 2 * len(have or ())), r)
            self._rows[(point, r)] = have
        return have

    def stirling(self, kind: str, point: int, n_max: int) -> list[list[Fraction]]:
        have = self._stirling.get((kind, point))
        if have is None or len(have) <= n_max:
            build = deg_stirling2_at if kind == "deg2" else scaled_stirling_at
            have = build(Fraction(point), max(n_max, 2 * len(have or ())))
            self._stirling[(kind, point)] = have
        return have


# ---------------------------------------------------------------------------
# polynomial helpers; a polynomial is its ascending coefficient list


def peval(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def degree(coeffs) -> int:
    d = len(coeffs) - 1
    while d >= 0 and not coeffs[d]:
        d -= 1
    return d


def bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    top = 0
    for q in values:
        q = Fraction(q)
        top = max(top, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return top


# ---------------------------------------------------------------------------
# decoders for the three document formats

_TEXT_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)(\*)?)?(λ(?:\^(\d+))?)?")
_LATEX_TERM = re.compile(
    r"([+-]?)(?:\\frac\{(\d+)\}\{(\d+)\}|(\d+))?(\\lambda(?:\^\{(\d+)\})?)?"
)


def _place(out: dict, power: int, value: Fraction, text: str) -> None:
    require(power not in out, f"repeated power {power} in {text!r}")
    out[power] = value


def _dense(terms: dict) -> list[Fraction]:
    if not terms:
        return []
    out = [Fraction(0)] * (max(terms) + 1)
    for p, v in terms.items():
        out[p] = v
    return out


def decode_text(text: str) -> list[Fraction]:
    """``-1/6+1/6*λ^2`` to its ascending coefficients."""
    require(text != "", "empty cell where a value belongs")
    if text == "0":
        return []
    terms: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _TEXT_TERM.match(text, pos)
        require(m is not None and m.end() > pos, f"cannot parse {text!r}")
        sign, mag, star, lam, power = m.groups()
        require(mag is not None or lam is not None, f"cannot parse {text!r}")
        require(bool(star) == (mag is not None and lam is not None), f"bad term in {text!r}")
        value = Fraction(mag) if mag is not None else Fraction(1)
        _place(terms, (int(power) if power else 1) if lam else 0,
               -value if sign == "-" else value, text)
        pos = m.end()
    return _dense(terms)


def decode_latex(text: str) -> list[Fraction]:
    """``-\\frac{1}{6}+\\frac{1}{6}\\lambda^{2}`` to its ascending coefficients."""
    require(text != "", "empty cell where a value belongs")
    if text == "0":
        return []
    terms: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _LATEX_TERM.match(text, pos)
        require(m is not None and m.end() > pos, f"cannot parse {text!r}")
        sign, num, den, whole, lam, power = m.groups()
        if num is not None:
            value = Fraction(int(num), int(den))
        elif whole is not None:
            value = Fraction(int(whole))
        else:
            require(lam is not None, f"cannot parse {text!r}")
            value = Fraction(1)
        _place(terms, (int(power) if power else 1) if lam else 0,
               -value if sign == "-" else value, text)
        pos = m.end()
    return _dense(terms)


def decode_json_scalar(obj) -> list[Fraction]:
    if isinstance(obj, str):
        q = Fraction(obj)
        return [q] if q else []
    require(isinstance(obj, list), f"not a serialized scalar: {obj!r}")
    cs = [Fraction(c) for c in obj]
    require(not cs or cs[-1] != 0, f"trailing zero in {obj!r}")
    return cs


def parse_document(fmt: str, text: str) -> dict:
    """Parse one table document into {"columns": [...], "rows": [[cell..]..]}
    where value cells are coefficient lists, empty cells are None, and
    int and bool cells keep their type."""
    if fmt == "json":
        doc = json.loads(text)
        payload = doc["payload"]
        rows = []
        for row in payload["rows"]:
            cells = []
            for i, cell in enumerate(row):
                if i == 0 or cell is None or isinstance(cell, bool):
                    cells.append(cell)
                else:
                    cells.append(decode_json_scalar(cell))
            rows.append(cells)
        return {"columns": payload["columns"], "rows": rows, "meta": doc}
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(text)))
        require(len(table) >= 1, "empty csv document")
        rows = []
        for row in table[1:]:
            cells = [int(row[0])]
            for cell in row[1:]:
                if cell == "":
                    cells.append(None)
                elif cell in ("true", "false"):
                    cells.append(cell == "true")
                else:
                    cells.append(decode_text(cell))
            rows.append(cells)
        return {"columns": table[0], "rows": rows, "meta": None}
    if fmt == "latex":
        lines = text.rstrip("\n").split("\n")
        require(lines[0].startswith("% degenbern "), "latex header missing")
        begin = next(i for i, ln in enumerate(lines) if ln.startswith("\\begin{tabular}"))
        require(lines[-1] == "\\end{tabular}", "latex table not closed")
        require(lines[begin + 2] == "\\hline", "latex rule missing")
        columns = [c.replace("\\_", "_") for c in _latex_cells(lines[begin + 1])]
        rows = []
        for line in lines[begin + 3:-1]:
            raw = _latex_cells(line)
            cells = [int(raw[0])]
            for cell in raw[1:]:
                if cell == "":
                    cells.append(None)
                elif cell in ("\\mathrm{true}", "\\mathrm{false}"):
                    cells.append(cell == "\\mathrm{true}")
                else:
                    cells.append(decode_latex(cell))
            rows.append(cells)
        return {"columns": columns, "rows": rows, "meta": None}
    raise ValueError(f"unknown format {fmt!r}")


def _latex_cells(line: str) -> list[str]:
    require(line.endswith(" \\\\"), f"latex row not terminated: {line!r}")
    return [c.strip() for c in line[:-3].split(" & ")]


# ---------------------------------------------------------------------------
# checkers


def check_eval_row(values, lam: Fraction, r: int = 1) -> int:
    """An evaluated row at its own λ against the reference inversion."""
    values = [Fraction(v) for v in values]
    ref = bernoulli_row(lam, len(values) - 1, r)
    for n, (got, want) in enumerate(zip(values, ref)):
        require(got == want, f"λ={lam} r={r} n={n}: {got} != {want}")
    return bits(values)


def check_sym_row(rows_coeffs, oracle: RowOracle, r: int = 1) -> int:
    """A symbolic row, one coefficient list per n: value n has degree at
    most n and matches the reference at the n + 2 points 0..n+1."""
    n_max = len(rows_coeffs) - 1
    top = 0
    for n, cs in enumerate(rows_coeffs):
        require(degree(cs) <= n, f"r={r} n={n}: degree {degree(cs)} exceeds {n}")
        top = max(top, bits(cs))
    for point in range(n_max + 2):
        ref = oracle.row(point, r, n_max)
        for n, cs in enumerate(rows_coeffs):
            if point <= n + 1:
                got = peval(cs, point)
                require(got == ref[n], f"r={r} n={n} at λ={point}: {got} != {ref[n]}")
    return top


def check_classical(values) -> int:
    values = [Fraction(v) for v in values]
    ref = cauchy_numbers(len(values) - 1)
    for n, (got, want) in enumerate(zip(values, ref)):
        require(got == want, f"classical n={n}: {got} != {want}")
    return bits(values)


def check_triangle(rows: list[list[list[Fraction]]]) -> int:
    """Rows 1..N of the coefficient triangle (rows[N-1][i] is entry
    (i, N)): entry (i, N) has degree exactly N - i, constant term
    (-1)^(N+i) i! s(N, i), and the closed-form value at λ = 1..N-i+1.
    With λ = 0 that is N - i + 2 points, so the entry is proven."""
    s = stirling1(len(rows))
    top = 0
    for N, row in enumerate(rows, start=1):
        require(len(row) == N + 1, f"triangle row {N} has {len(row)} entries")
        for i, cs in enumerate(row):
            require(degree(cs) == N - i, f"entry ({i},{N}) has degree {degree(cs)}")
            const = cs[0] if cs else Fraction(0)
            want = (-1) ** (N + i) * math.factorial(i) * s[N][i]
            require(const == want, f"entry ({i},{N}) constant {const} != {want}")
            for point in range(1, N - i + 2):
                got, ref = peval(cs, point), triangle_entry_at(i, N, point)
                require(got == ref, f"entry ({i},{N}) at λ={point}: {got} != {ref}")
            top = max(top, bits(cs))
    return top


def check_stirling(kind: str, rows, oracle: RowOracle) -> int:
    """Rows 0..n of a deg2 or scaled-deg2 triangle (rows[n][k] a
    coefficient list): degree at most n - k, and agreement with the
    reference recurrence at the n - k + 2 points 0..n-k+1."""
    n_max = len(rows) - 1
    top = 0
    for n, row in enumerate(rows):
        require(len(row) == n + 1, f"{kind} row {n} has {len(row)} entries")
        for k, cs in enumerate(row):
            require(degree(cs) <= n - k, f"{kind} ({n},{k}) degree {degree(cs)}")
            for point in range(n - k + 2):
                want = oracle.stirling(kind, point, n_max)[n][k]
                got = peval(cs, point)
                require(got == want, f"{kind} ({n},{k}) at λ={point}: {got} != {want}")
            top = max(top, bits(cs))
    return top


def check_report(report: dict, expect_pass: bool = True) -> None:
    """A report in its JSON form: a pass has no witness; an expected
    failure carries a witness."""
    if expect_pass:
        require(report["verdict"] == "pass", f"{report['identity']} failed: {report['witness']}")
        require(report["witness"] is None, f"{report['identity']} passed with a witness")
    else:
        require(report["verdict"] == "fail", f"corrupted {report['identity']} passed")
        require(bool(report["witness"]), f"{report['identity']} failed without a witness")


def check_malformed(code, stdout: str, stderr: str) -> bool:
    """Exit-code contract for a malformed request: exit 2, empty stdout,
    one ``error:`` line on stderr.  Returns whether it held."""
    lines = stderr.splitlines()
    return code == 2 and stdout == "" and len(lines) == 1 and lines[0].startswith("error: ")
