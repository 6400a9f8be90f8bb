"""Per-layer tracing from outside the program.

:func:`install` replaces the public functions and methods of each
degenbern module with timing wrappers, in every module namespace where
a caller looks them up (the defining module, the modules that imported
the name, the package root, and classes for methods).  Nothing under
``src/`` changes.  Each wrapper opens a span; a layer's self time is
its spans' duration minus the part covered by child spans.  Spans are
aggregated in memory per layer and reported when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, attribute) pairs; "Class.method" names a method
LAYERS = {
    "scalars.poly_mul": [("scalars", "LambdaPoly.__mul__"), ("scalars", "LambdaPoly.__rmul__")],
    "scalars.poly_add": [("scalars", "LambdaPoly.__add__"), ("scalars", "LambdaPoly.__radd__")],
    "scalars.render": [
        ("scalars", name)
        for name in (
            "render_poly_text", "render_poly_latex", "rational_to_string",
            "scalar_to_text", "scalar_to_latex", "scalar_to_json",
        )
    ],
    "series.mul": [("series", "TruncatedSeries.__mul__"), ("series", "TruncatedSeries.__rmul__")],
    "series.laurent_mul": [("series", "LaurentSeries.__mul__"), ("series", "LaurentSeries.__rmul__")],
    "series.reciprocal": [("series", "TruncatedSeries.reciprocal")],
    "series.pow": [("series", "TruncatedSeries.__pow__"), ("series", "LaurentSeries.__pow__")],
    "series.derivative": [("series", "TruncatedSeries.derivative"), ("series", "LaurentSeries.derivative")],
    "combinatorics": [
        ("combinatorics", name)
        for name in (
            "binomial", "multinomial", "falling_factorial", "generalized_falling",
            "stirling1_signed", "degenerate_stirling2", "bell_partial",
            "bell_scaling_check", "scaled_degenerate_stirling",
        )
    ],
    "ode_coeffs.triangle": [("ode_coeffs", "coeff_triangle")],
    "ode_coeffs.entry_routes": [
        ("ode_coeffs", name)
        for name in (
            "coeff_explicit_falling", "coeff_explicit_stirling",
            "coeff_unrolled_recurrence", "coeff_limit_at_zero",
        )
    ],
    "bernoulli.series": [("bernoulli", "row_via_series")],
    "bernoulli.recurrence": [("bernoulli", "row_via_recurrence")],
    "bernoulli.explicit": [("bernoulli", "row_via_explicit"), ("bernoulli", "value_via_explicit")],
    "bernoulli.higher_order": [("bernoulli", "row_higher_order"), ("bernoulli", "convolution_row")],
    "bernoulli.multinomial": [("bernoulli", "row_via_multinomial"), ("bernoulli", "value_via_multinomial")],
    "bernoulli.classical": [("bernoulli", "classical_row"), ("bernoulli", "classical_series_row")],
    "verify.ode": [("verify", "verify_ode")],
    "verify.cor34": [("verify", "verify_convolution")],
    "verify.eq4x": [("verify", "verify_classical_derivative")],
    "verify.thm41": [("verify", "verify_higher_order")],
    "verify.cor42": [("verify", "verify_singular")],
    "verify.context": [("verify", "HigherOrderContext.__init__")],
    "verify.routes": [
        ("verify", name)
        for name in (
            "verify_route_agreement_a", "verify_route_agreement_b",
            "verify_route_agreement_bell", "verify_route_agreement_stirling",
            "verify_stirling_limit",
        )
    ],
    "cli.parse": [("cli", "build_parser"), ("cli", "_logical_command")],
    "cli.run": [("cli", name) for name in ("run_b", "run_a", "run_stirling", "run_classical", "run_verify")],
    "cli.emit": [("cli", "emit")],
}

# extra counts derived from a call's arguments or result
_NODE_COUNT = {"bernoulli.multinomial"}
_CALL_COUNT = {"bell_partial": "combinatorics.bell_partial_calls"}
_REPORT_LAYERS = {"verify.ode", "verify.cor34", "verify.eq4x", "verify.thm41", "verify.cor42", "verify.routes"}


class Tracer:
    """Span stack plus per-layer aggregates."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [layer, start, child_time]

    # spans ------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        layer = frame[0]
        self.self_s[layer] += own
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, layer: str, fn):
        enter, leave = self._enter, self._leave

        if layer in _NODE_COUNT:
            counts = self.counts

            @functools.wraps(fn)
            def wrapper(n_max, *args, **kwargs):
                # both walks visit every part sequence with sum <= n
                # once: 2^n - 1 nodes below the root
                counts[layer + "_nodes"] += (1 << n_max) - 1 if n_max >= 0 else 0
                frame = enter(layer)
                try:
                    return fn(n_max, *args, **kwargs)
                finally:
                    leave(frame)
        elif fn.__name__ in _CALL_COUNT:
            counts, key = self.counts, _CALL_COUNT[fn.__name__]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                frame = enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        elif layer in _REPORT_LAYERS:
            counts = self.counts

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame)
                counts["verify.reports"] += 1
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        return wrapper


def install(tracer: Tracer, package) -> None:
    """Wrap every traced callable wherever a module of the package holds
    a reference to it."""
    prefix = package.__name__ + "."
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package.__name__ or name.startswith(prefix))]
    for layer, targets in LAYERS.items():
        for module_name, attr in targets:
            module = sys.modules[prefix + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, tracer.wrap(layer, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(layer, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
    # the parser is built per call; time its argument parsing as cli.parse
    cli = sys.modules[prefix + "cli"]
    build = cli.build_parser

    @functools.wraps(build)
    def build_parser():
        parser = build()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = build_parser
