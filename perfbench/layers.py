"""Where the traced run hooks into melcert, and the per-layer metrics it reports.

Each hook names the module attributes that the calling code looks up, so a
wrapper sees exactly the calls that go through that name: ``scaled_value`` is
hooked in ``melcert.zeros`` only (sign certification), not inside
``evaluate_normal_form``.  Times are self times (a span minus its child
spans) summed over the run and divided by the items completed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

import workloads
from spans import by_name, coverage, hook_cost_s

P, Z, M, F = "melcert.polynomials", "melcert.zeros", "melcert.melnikov", "melcert.flow"
CLI_COMMANDS = tuple(workloads.span_name(c) for c, _args in workloads.CLI_COMMANDS)
IMPORT_PROBES = 3


def _add(counter, amount):
    def after(tracer, _args, _kwargs, result):
        tracer.counts[counter] += amount(result)
    return after


def _eliminated(tracer, _args, _kwargs, elim):
    tracer.maxima["zeros.eliminant_degree_max"] = max(
        tracer.maxima["zeros.eliminant_degree_max"], elim.degree)
    bits = max(abs(c.numerator).bit_length() for c in elim.coeffs)
    tracer.maxima["zeros.eliminant_bits_max"] = max(
        tracer.maxima["zeros.eliminant_bits_max"], bits)


def _signed(tracer, args, kwargs, _result):
    bits = args[2] if len(args) > 2 else kwargs["bits"]
    tracer.maxima["melnikov.sign_bits_max"] = max(tracer.maxima["melnikov.sign_bits_max"], bits)


def _cycles(tracer, _args, _kwargs, report):
    tracer.counts["flow.cycles_found"] += len(report.cycles)
    tracer.counts["flow.failures"] += len(report.failures)


HOOKS = [
    ("polynomials.gcd", [(P, "poly_gcd")], None),
    ("polynomials.squarefree", [(P, "squarefree_part"), (Z, "squarefree_part"),
                                (P, "squarefree_decomposition"),
                                (Z, "squarefree_decomposition")], None),
    ("polynomials.count_roots", [(P, "count_real_roots"), (Z, "count_real_roots")], None),
    ("polynomials.isolate", [(Z, "isolate_roots")], None),
    ("polynomials.refine", [(Z, "refine_root")], None),
    ("polynomials.sturm_chain", [(P, "SturmChain")], None),
    ("zeros.count", [(Z, "count_zeros")],
     _add("zeros.certified", lambda report: len(report.certified))),
    ("zeros.eliminate", [(Z, "eliminate_radicals")], _eliminated),
    (None, [(Z, "_isolate_open")], _add("zeros.candidates", len)),
    (None, [(Z, "exact_zero_at")], _add("zeros.exact_checks", lambda _r: 1)),
    ("melnikov.assemble", [(M, "assemble")], None),
    ("melnikov.sign", [(Z, "scaled_value")], _signed),
    ("melnikov.evaluate", [(M, "evaluate_normal_form")], None),
    ("intervals.sqrt", [(M, "sqrt_interval")], None),
    ("intervals.pi", [(M, "pi_interval")], None),
    ("intervals.range", [(M, "poly_range")], None),
    ("flow.quadrature", [(F, "numeric_melnikov")], None),
    ("flow.section", [(F, "integrate_to_section")], _add("flow.section_returns", lambda _r: 1)),
    (None, [(F, "solve_ivp")], _add("flow.rhs_evals", lambda sol: sol.nfev)),
    ("flow.cycles", [(F, "find_limit_cycles")], _cycles),
]

# (metric, unit): the order in which the traced run prints them
PER_LAYER = [
    ("polynomials.gcd_s", "s/item"),
    ("polynomials.gcd_calls", "calls/item"),
    ("polynomials.squarefree_s", "s/item"),
    ("polynomials.squarefree_calls", "calls/item"),
    ("polynomials.count_roots_s", "s/item"),
    ("polynomials.count_roots_calls", "calls/item"),
    ("polynomials.isolate_s", "s/item"),
    ("polynomials.isolate_calls", "calls/item"),
    ("polynomials.refine_s", "s/item"),
    ("polynomials.refine_calls", "calls/item"),
    ("polynomials.sturm_chain_s", "s/item"),
    ("polynomials.sturm_chains", "calls/item"),
    ("zeros.count_s", "s/item"),
    ("zeros.eliminate_s", "s/item"),
    ("zeros.eliminant_degree_max", "degree"),
    ("zeros.eliminant_bits_max", "bits"),
    ("zeros.candidates", "count/item"),
    ("zeros.certified", "count/item"),
    ("zeros.useful_ratio", "ratio"),
    ("zeros.exact_checks", "count/item"),
    ("zeros.undecided_frac", "ratio"),
    ("melnikov.assemble_s", "s/item"),
    ("melnikov.assemble_calls", "calls/item"),
    ("melnikov.sign_s", "s/item"),
    ("melnikov.sign_calls", "calls/item"),
    ("melnikov.sign_bits_max", "bits"),
    ("melnikov.evaluate_s", "s/item"),
    ("melnikov.evaluate_calls", "calls/item"),
    ("intervals.sqrt_s", "s/item"),
    ("intervals.sqrt_calls", "calls/item"),
    ("intervals.pi_s", "s/item"),
    ("intervals.range_s", "s/item"),
    ("intervals.range_calls", "calls/item"),
    ("flow.quadrature_s", "s/item"),
    ("flow.quadrature_calls", "calls/item"),
    ("flow.section_s", "s/item"),
    ("flow.section_returns", "count/item"),
    ("flow.rhs_evals", "count/item"),
    ("flow.cycles_s", "s/item"),
    ("flow.cycles_found", "count/item"),
    ("flow.failures", "count/item"),
    ("cli.import_s", "s"),
    ("cli.import_flow_s", "s"),
    *[(f"cli.{c}_s", "s") for c in CLI_COMMANDS],
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.spans_per_item", "count/item"),
]


def import_times(cwd, env) -> tuple:
    """Median cumulative import time of melcert and of melcert.flow, in s,
    from ``python -X importtime -c "import melcert"``."""
    total, flow = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import melcert"],
                              cwd=cwd, env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        total.append(cumulative["melcert"])
        flow.append(cumulative.get("melcert.flow", 0.0))
    return statistics.median(total), statistics.median(flow)


def per_layer(tracer, items: int, undecided: int, counted: int, imports: tuple) -> dict:
    """Every PER_LAYER metric from one traced run."""
    table = by_name(tracer.spans)
    per_item = max(items, 1)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0) / per_item

    def calls(name):
        return table.get(name, {}).get("calls", 0) / per_item

    def mean_s(name):
        row = table.get(name)
        return row["total_s"] / row["calls"] if row else 0.0

    counts, maxima = tracer.counts, tracer.maxima
    item_time = table.get("item", {}).get("total_s", 0.0)
    values = {}
    for name, _targets, _after in HOOKS:
        if name is not None:
            values[f"{name}_s"] = self_s(name)
            values[f"{name}_calls"] = calls(name)
    values.update({
        "polynomials.sturm_chains": calls("polynomials.sturm_chain"),
        "zeros.eliminant_degree_max": maxima["zeros.eliminant_degree_max"],
        "zeros.eliminant_bits_max": maxima["zeros.eliminant_bits_max"],
        "zeros.candidates": counts["zeros.candidates"] / per_item,
        "zeros.certified": counts["zeros.certified"] / per_item,
        "zeros.useful_ratio": (counts["zeros.certified"] / counts["zeros.candidates"]
                               if counts["zeros.candidates"] else 0.0),
        "zeros.exact_checks": counts["zeros.exact_checks"] / per_item,
        "zeros.undecided_frac": undecided / counted if counted else 0.0,
        "melnikov.sign_bits_max": maxima["melnikov.sign_bits_max"],
        "flow.section_returns": counts["flow.section_returns"] / per_item,
        "flow.rhs_evals": counts["flow.rhs_evals"] / per_item,
        "flow.cycles_found": counts["flow.cycles_found"] / per_item,
        "flow.failures": counts["flow.failures"] / per_item,
        "cli.import_s": imports[0],
        "cli.import_flow_s": imports[1],
        **{f"cli.{c}_s": mean_s(f"cli.{c}") for c in CLI_COMMANDS},
        "trace.overhead_frac": (hook_cost_s() * tracer.hook_calls / item_time
                                if item_time else 0.0),
        "trace.coverage_frac": coverage(tracer.spans),
        "trace.spans_per_item": (len(tracer.spans) - table.get("item", {}).get("calls", 0))
        / per_item,
    })
    return {name: values[name] for name, _unit in PER_LAYER}
