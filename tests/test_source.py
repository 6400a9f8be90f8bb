"""Source rules for the package: no tuple is built from a generator,
every name the benchmark's tracer wraps exists, the benchmark's checkers
pass their self-test, the Bell generating-function route keeps its own
series product, ``__all__`` lists exactly the names the package root
imports, no module imports a name it never reads, code forks on the
domain only at listed sites, no module but ``series.py`` builds a
series unchecked, every docstring example and the README's
quick tour run, and every ``$ degenbern`` example and the JSON document
shape in the README are what the command prints.  A README failure
names the README line.

Under CPython 3.11, ``tuple(<generator>)`` and ``f(*<generator>)``
allocate their tuple at a guessed length and then resize it.  The
resized tuple is later freed into the interpreter's free list for its
final length, and below length 20 those lists keep up to 2000 tuples
each until a full collection, because little else allocates tuples of
those lengths.  On the evaluated hot paths those lists can hold
megabytes; a tuple built from a list has its final length from the
start and leaves nothing behind.
"""

import ast
import contextlib
import doctest
import importlib
import importlib.util
import io
import itertools
import json
import shlex
import subprocess
import sys
from pathlib import Path

import degenbern
from degenbern import cli

PACKAGE = Path(degenbern.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def generator_tuples(source: str) -> list[tuple[int, str]]:
    """(line, pattern) of each tuple built from a generator expression."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                and node.args and isinstance(node.args[0], ast.GeneratorExp)):
            found.append((node.lineno, "tuple(<generator>)"))
        for arg in node.args:
            if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp):
                found.append((node.lineno, "f(*<generator>)"))
    return found


def test_the_rule_sees_both_patterns():
    source = "a = tuple(x for x in y)\nb = f(1, *(x for x in y))\nc = tuple([x for x in y])\n"
    assert generator_tuples(source) == [(1, "tuple(<generator>)"), (2, "f(*<generator>)")]


def test_no_tuple_is_built_from_a_generator():
    found = [
        f"{path.name}:{line}: {pattern}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, pattern in generator_tuples(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_every_traced_name_resolves():
    # bench/tracing.py wraps these by name and fails on a missing one,
    # so a rename in the package would break `bench/run.py --trace 1`
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, targets in tracing.LAYERS.items():
        for module_name, attr in targets:
            owner = importlib.import_module(f"degenbern.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                found = meth in vars(getattr(owner, cls_name, object))
            else:
                found = callable(getattr(owner, attr, None))
            if not found:
                missing.append(f"{layer}: {module_name}.{attr}")
    assert missing == []


def test_benchmark_checkers_pass_their_selftest():
    # the benchmark's checkers read the package's public surface (the
    # positional CoeffTable(domain, rows), .rows, .row(N), .value(n, k));
    # their self-test fails when a rename leaves them reading nothing
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["failed"] == 0


def test_bell_power_route_shares_no_product_with_series():
    # the generating-function Bell route raises its series by a plain
    # convolution of its own; the packed product that series
    # multiplication uses must stay out of it
    source = (PACKAGE / "combinatorics.py").read_text(encoding="utf-8")
    assert "_kronecker_product" not in source


def test_all_lists_exactly_the_imported_names():
    # a name imported into the package root and left out of __all__, or
    # listed there and never imported, fails here
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(degenbern.__all__) == len(set(degenbern.__all__))
    assert set(degenbern.__all__) == imported | {"__version__"}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a module imports and never reads; a
    ``__future__`` import binds no name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_rule_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .a import b, c as d\n"
        "import x.y\n"
        "def f():\n"
        "    from .e import g\n"
        "    return sys.argv, d, x.y\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "b"), (6, "g")]


def test_no_module_imports_an_unused_name():
    # the package root re-exports what it imports, which the __all__
    # rule above checks instead
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# every conditional on ``.is_symbolic``, or outside scalars.py on
# ``isinstance(…, LambdaPoly)``, by file and enclosing function; a new
# fork on the domain has to be added on purpose
DOMAIN_FORKS = {
    # the one dot-product helper: Q[λ] rows packed, rational rows as int sums
    ("scalars.py", "rational_dots"),
    ("series.py", "TruncatedSeries.__mul__"),  # the packed product at a rational λ
    # over Q[λ] the sums are packed dot products; the int sums stay plain loops
    ("series.py", "TruncatedSeries.reciprocal"),
    ("bernoulli.py", "row_via_recurrence"),
    ("ode_coeffs.py", "scaled_stirling_row"),
    ("ode_coeffs.py", "scaled_falling_row"),  # the λ^i quotient
    ("series.py", "_invert_constant"),  # a constant term, rational or a constant λ-polynomial
}


def domain_forks(source: str, type_tests: bool = True) -> list[tuple[int, str]]:
    """(line, enclosing function) of each if, while, conditional
    expression or comprehension filter whose test reads ``.is_symbolic``
    or, with ``type_tests``, calls ``isinstance`` with ``LambdaPoly``
    among its types, so that a type test cannot stand in for a domain
    fork unseen."""
    found = []

    def is_type_test(n) -> bool:
        return (type_tests and isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance" and len(n.args) == 2
                and any(getattr(t, "id", getattr(t, "attr", None)) == "LambdaPoly"
                        for t in ast.walk(n.args[1])))

    def reads_domain(test) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr == "is_symbolic"
                   or is_type_test(n) for n in ast.walk(test))

    def visit(node, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        tests = []
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            tests = [node.test]
        elif isinstance(node, ast.comprehension):
            tests = node.ifs
        found.extend((test.lineno, scope) for test in tests if reads_domain(test))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_rule_sees_every_domain_fork():
    source = (
        "class A:\n"
        "    def f(self, d):\n"
        "        if d.is_symbolic:\n"
        "            pass\n"
        "        return 1 if d.domain.is_symbolic else [x for x in d if not x.is_symbolic]\n"
        "\n"
        "def g(d):\n"
        "    while d.is_symbolic:\n"
        "        pass\n"
        "    return d.is_symbolic\n"
        "\n"
        "def h(x):\n"
        "    if isinstance(x, LambdaPoly) or isinstance(x, int):\n"
        "        return [y for y in x if not isinstance(y, (int, scalars.LambdaPoly))]\n"
        "    return isinstance(x, LambdaPoly)\n"
    )
    assert domain_forks(source) == [
        (3, "A.f"), (5, "A.f"), (5, "A.f"), (8, "g"), (13, "h"), (14, "h")]
    assert domain_forks(source, type_tests=False) == [(3, "A.f"), (5, "A.f"), (5, "A.f"), (8, "g")]


def test_domain_forks_are_at_the_listed_sites():
    found = {
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, scope in domain_forks(path.read_text(encoding="utf-8"),
                                     type_tests=path.name != "scalars.py")
    }
    assert found == DOMAIN_FORKS


def raw_series_calls(source: str) -> list[int]:
    """Lines that call ``TruncatedSeries._raw``, which builds a series
    from a tuple as it is, with no coercion and no order check."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_raw"
        and getattr(node.func.value, "id", getattr(node.func.value, "attr", None)) == "TruncatedSeries"
    )


def test_the_rule_sees_every_raw_series_call():
    source = (
        "a = TruncatedSeries._raw(d, c)\n"
        "b = series.TruncatedSeries._raw(d, c)\n"
        "c = TruncatedSeries(d, c)\n"
        "d = Other._raw(d, c)\n"
    )
    assert raw_series_calls(source) == [1, 2]


def test_only_series_builds_a_series_unchecked():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "series.py"
        for line in raw_series_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_every_module_passes_its_doctests():
    # doctest prints each failure with its file and line; the README's
    # quick tour is a doctest session too
    report = io.StringIO()
    names = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    with contextlib.redirect_stdout(report):
        results = {name: doctest.testmod(importlib.import_module(f"degenbern.{name}"))
                   for name in names}
        results["__init__"] = doctest.testmod(degenbern)
        results["README.md"] = doctest.testfile(
            str(README), module_relative=False, encoding="utf-8")
    failed = {name: r.failed for name, r in results.items() if r.failed}
    assert failed == {}, report.getvalue()
    assert results["scalars"].attempted > 0
    assert results["README.md"].attempted > 0


def fenced_blocks(text: str) -> list[tuple[int, str, list[str]]]:
    """(line of the opening fence, info string, body lines) of each
    fenced block of a Markdown text."""
    blocks, start = [], None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.startswith("```"):
            if start is not None:
                body.append(line)
        elif start is None:
            start, info, body = number, line[3:].strip(), []
        else:
            blocks.append((start, info, body))
            start = None
    return blocks


def cli_examples(text: str) -> list[tuple[int, list[str], str]]:
    """(line, argv, shown output) of each ``$ degenbern`` example of a
    Markdown text; the output runs to the next blank line or the end of
    its block."""
    return [
        (start + 1 + i, shlex.split(line)[2:],
         "".join(out + "\n" for out in itertools.takewhile(bool, body[i + 1:])))
        for start, _, body in fenced_blocks(text)
        for i, line in enumerate(body)
        if line.startswith("$ degenbern ")
    ]


def test_the_readme_parser_finds_examples_and_their_lines():
    text = "a\n```\n$ degenbern b --max-n 0\nx\n\n$ degenbern a --max-N 1\ny\nz\n```\n```json\n{}\n```\n"
    assert fenced_blocks(text) == [
        (2, "", ["$ degenbern b --max-n 0", "x", "", "$ degenbern a --max-N 1", "y", "z"]),
        (10, "json", ["{}"]),
    ]
    assert cli_examples(text) == [
        (3, ["b", "--max-n", "0"], "x\n"), (6, ["a", "--max-N", "1"], "y\nz\n")]


def run_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_every_readme_cli_example_prints_what_it_shows():
    text = README.read_text(encoding="utf-8")
    examples = cli_examples(text)
    # an example outside a fenced block would go unchecked
    assert len(examples) == text.count("\n$ degenbern ") > 0
    wrong = [f"README.md:{line}: $ degenbern {shlex.join(argv)}"
             for line, argv, shown in examples if run_main(argv) != (0, shown)]
    assert wrong == []


def test_the_readme_json_shape_is_the_output_of_its_command():
    [(line, _, body)] = [b for b in fenced_blocks(README.read_text(encoding="utf-8"))
                         if b[1] == "json"]
    shown = json.loads("\n".join(body))
    code, out = run_main(shown["command"])
    assert (code, json.loads(out)) == (0, shown), \
        f"README.md:{line}: not the output of $ degenbern {shlex.join(shown['command'])}"
