"""Per-layer metrics from the spans and counts of one traced CLI run.

A layer is a fracsteer module.  ``*_s`` metrics are the summed inclusive
span time of the named function, except where noted; ``*_calls`` count
its spans (or, for ``ml`` and ``log_gamma``, its calls).
"""

from collections import defaultdict

# name -> unit, in the order they are printed
UNITS = {
    "fracsteer.import_s": "s",
    "config.parse_config_s": "s",
    "special.ml_calls": "count",
    "special.ml_array_s": "s",
    "special.ml_integral_cache_hits": "count",
    "special.ml_integral_cache_misses": "count",
    "gammafn.log_gamma_calls": "count",
    "special.wright_pdf_calls": "count",
    "special.wright_pdf_s": "s",
    "fractional.convolution_kernel_calls": "count",
    "spectral.alpha_factors_calls": "count",
    "spectral.alpha_factors_s": "s",
    "solver.build_grid_operators_calls": "count",
    "solver.build_grid_operators_s": "s",
    "backend.memory_convolve_calls": "count",
    "backend.memory_convolve_s": "s",
    "solver.picard_solve_calls": "count",
    "solver.picard_iterations": "count",
    "solver.picard_iteration_s": "s",
    "control.compute_grammian_calls": "count",
    "control.compute_grammian_s": "s",
    "control.residual_p_s": "s",
    "control.synthesize_control_calls": "count",
    "control.synthesize_control_s": "s",
    "control.outer_rounds": "count",
    "control.outer_round_s": "s",
    "cli.output_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

# the metrics that must repeat exactly between two traced runs of the
# same code and seed
COUNTS = tuple(name for name, unit in UNITS.items() if unit == "count")

COVERAGE_GATE = 0.9


def aggregate(record: dict, wall: float) -> dict:
    """Per-layer metrics (all but ``trace.overhead_frac``) of one run.

    ``record`` is what ``traced_cli.py`` wrote; ``wall`` is the traced
    child's wall time from spawn to exit.
    """
    spans = record["spans"]
    names = [s[0] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    children = defaultdict(list)
    calls, total = defaultdict(int), defaultdict(float)
    for i, (name, parent, _, _) in enumerate(spans):
        children[parent].append(i)
        calls[name] += 1
        total[name] += dur[i]

    def kids(i, name):
        return [j for j in children[i] if names[j] == name]

    # one Picard iteration = one memory convolution inside picard_solve
    picard = [i for i, n in enumerate(names) if n == "solver.picard_solve"]
    iterations = sum(len(kids(i, "backend.memory_convolve")) for i in picard)
    iteration_time = sum(dur[i] - sum(dur[j] for j in kids(i, "solver.build_grid_operators"))
                         for i in picard)
    # one outer round = synthesize_control + picard_solve in closed_loop_solve,
    # whose first picard_solve (the uncontrolled start) is not a round
    loops = [i for i, n in enumerate(names) if n == "control.closed_loop_solve"]
    rounds = sum(len(kids(i, "control.synthesize_control")) for i in loops)
    round_time = sum(dur[i] - dur[kids(i, "solver.picard_solve")[0]] for i in loops)

    roots = children[-1]
    command = [i for i in roots if names[i].startswith("cli.run_")]
    output = sum(dur[i] - sum(dur[j] for j in children[i]) for i in command)
    start, imported = record["import"]
    covered = (imported - start) + sum(dur[i] for i in roots)

    counts = record["counts"]
    cache = record["ml_integral_cache"]
    return {
        "fracsteer.import_s": imported - start,
        "config.parse_config_s": total["config.parse_config"],
        "special.ml_calls": counts["special.ml"],
        "special.ml_array_s": total["special.ml_array"],
        "special.ml_integral_cache_hits": cache["hits"],
        "special.ml_integral_cache_misses": cache["misses"],
        "gammafn.log_gamma_calls": counts["gammafn.log_gamma"],
        "special.wright_pdf_calls": calls["special.wright_pdf"],
        "special.wright_pdf_s": total["special.wright_pdf"],
        "fractional.convolution_kernel_calls": calls["fractional.convolution_kernel"],
        "spectral.alpha_factors_calls": calls["spectral.alpha_factors"],
        "spectral.alpha_factors_s": total["spectral.alpha_factors"],
        "solver.build_grid_operators_calls": calls["solver.build_grid_operators"],
        "solver.build_grid_operators_s": total["solver.build_grid_operators"],
        "backend.memory_convolve_calls": calls["backend.memory_convolve"],
        "backend.memory_convolve_s": total["backend.memory_convolve"],
        "solver.picard_solve_calls": calls["solver.picard_solve"],
        "solver.picard_iterations": iterations,
        "solver.picard_iteration_s": iteration_time / iterations if iterations else 0.0,
        "control.compute_grammian_calls": calls["control.compute_grammian"],
        "control.compute_grammian_s": total["control.compute_grammian"],
        "control.residual_p_s": total["control.residual_p"],
        "control.synthesize_control_calls": calls["control.synthesize_control"],
        "control.synthesize_control_s": total["control.synthesize_control"],
        "control.outer_rounds": rounds,
        "control.outer_round_s": round_time / rounds if rounds else 0.0,
        "cli.output_s": output,
        "trace.coverage": covered / wall,
    }
