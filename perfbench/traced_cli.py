"""Run the fracsteer CLI with its layers' public functions wrapped.

Usage::

    python perfbench/traced_cli.py TRACE_OUT CLI_ARG...

Every wrapped function records a span (name, parent span, start, end)
or, for the two functions called millions of times, only a call count.
A function is replaced under every module that imported it by name, so
``build_grid_operators`` is traced when ``control`` calls it as well as
when ``solver`` does.  Spans and counts stay in memory and are written
to TRACE_OUT as JSON once, after the CLI returns.  Nothing under
``src/`` is modified.
"""

import time

_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# (module, function) pairs traced as spans; the span is named after the
# layer (module) and the function.
SPANNED = {
    "config": ("parse_config",),
    "cli": ("run_simulate", "run_synthesize", "run_sweep", "run_verify_kernels"),
    "solver": ("picard_solve", "build_grid_operators"),
    "backend": ("memory_convolve",),
    "control": ("closed_loop_solve", "synthesize_control", "compute_grammian",
                "residual_p"),
    "special": ("ml_array", "wright_pdf"),
    "fractional": ("convolution_kernel",),
}
# ModelSpec methods, both recorded as one spectral layer
ALPHA_FACTOR_METHODS = ("s_alpha_factors", "t_alpha_factors")
# scalar functions called millions of times: counted only, a span each
# would cost more than the function itself
COUNTED = {"special": "ml", "gammafn": "log_gamma"}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = {}

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
        return wrapper

    def counter(self, name, fn):
        calls = [0]
        self.counts[name] = calls

        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper


def _replace_everywhere(original, wrapper):
    """Rebind every fracsteer module attribute that is ``original``."""
    for modname, module in list(sys.modules.items()):
        if modname == "fracsteer" or modname.startswith("fracsteer."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer):
    import fracsteer.cli  # noqa: F401  (loads every module that gets wrapped)
    from fracsteer.spectral import ModelSpec

    for layer, names in SPANNED.items():
        module = sys.modules[f"fracsteer.{layer}"]
        for fn_name in names:
            original = getattr(module, fn_name)
            _replace_everywhere(original, tracer.span(f"{layer}.{fn_name}", original))
    for method in ALPHA_FACTOR_METHODS:
        setattr(ModelSpec, method,
                tracer.span("spectral.alpha_factors", getattr(ModelSpec, method)))
    for layer, fn_name in COUNTED.items():
        original = getattr(sys.modules[f"fracsteer.{layer}"], fn_name)
        _replace_everywhere(original, tracer.counter(f"{layer}.{fn_name}", original))


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import fracsteer.cli
    from fracsteer import special
    import_end = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    try:
        return fracsteer.cli.main(cli_args)
    finally:
        cache = special._ml_integral_neg.cache_info()
        record = {
            "import": [_START, import_end],
            "spans": tracer.spans,
            "counts": {k: v[0] for k, v in tracer.counts.items()},
            "ml_integral_cache": {"hits": cache.hits, "misses": cache.misses},
        }
        with open(out_path, "w") as f:
            json.dump(record, f, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
