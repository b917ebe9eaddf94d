"""Traced run: spans and counts at the boundaries of symcrit's public functions.

Nothing under src/ changes.  `Tracer.install` replaces public functions
by wrappers in every loaded symcrit module's namespace (so calls between
modules are seen too) and restores them afterwards.  A span records
name, start, end, parent span and the operation it belongs to; counts
are added to every open span, so a span's counts include its children's.
Spans stay in memory and are written out as JSON lines when the run ends.

A traced run has two parts, each in its own fresh worker:
- `overhead_run` (one per workload): every operation of one round runs
  twice in a row, once untraced and once traced, the order alternating,
  each timed between reference readings as in an untraced run.  The pairs
  give the tracing overhead; the outputs of both are checked.
- `probe_run` (once per invocation): a fixed set of probes that yields
  every per-layer metric in BENCHMARK.json, on inputs taken from the
  workloads themselves (the README maps each metric to the end-to-end
  metric it should move).
"""

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time

import harness

# public functions that get a span; the solver kernels only get counts
SPANS = {
    "symcrit.cli": ("main",),
    "symcrit.jsonio": ("canonical_json", "csv_text"),
    "symcrit.geometry": ("example_configuration",),
    "symcrit.conditions": ("example_interval", "generic_interval", "critical_interval",
                           "invariant_interval", "minf_interval", "constant_f_intervals",
                           "energy_ordering_check", "f_ratio_condition"),
    "symcrit.solver": ("circle_reduction", "minimize", "constant_solution",
                       "proof_chain_diagnostics", "energy_separation"),
    "symcrit.expansion": ("fit_and_compare", "log_branch_sign", "rayleigh_quotient"),
}
COUNTS = {"symcrit.solver": ("quotient_value", "quotient_gradient")}

# cli-cold operations probed one subcommand at a time
CLI_PROBES = {"interval": "interval:hopf", "table": "table:json",
              "solve": "solve:direct", "expansion": "expansion:dim6"}
IMPORTS = ("symcrit", "symcrit.expansion", "symcrit.solver", "symcrit.conditions", "symcrit.cli")
REPS = 3


class _Proxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    # -- recording -------------------------------------------------------------

    def open(self, name):
        span = {"id": len(self.spans), "name": name, "op": self.op,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def count(self, name):
        for span in self._stack:
            span["counts"][name] = span["counts"].get(name, 0) + 1

    def call(self, name, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- installing wrappers ---------------------------------------------------

    def _replace(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symcrit" or mod_name.startswith("symcrit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self):
        """Wrap the loaded symcrit modules; a no-op where symcrit is not loaded."""
        for mod_name, names in SPANS.items():
            mod = sys.modules.get(mod_name)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    self._replace(fn, self._span_wrapper("%s.%s" % (mod_name[8:], name), fn))
        for mod_name, names in COUNTS.items():
            mod = sys.modules.get(mod_name)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    self._replace(fn, self._count_wrapper(name, fn))
        expansion = sys.modules.get("symcrit.expansion")
        if getattr(expansion, "quad", None) is not None:
            self._replace(expansion.quad, self._quad_wrapper(expansion.quad))
        solver = sys.modules.get("symcrit.solver")
        spla = getattr(solver, "spla", None)
        if spla is not None:
            proxy = _Proxy(spla, spsolve=self._span_wrapper("scipy.spsolve", spla.spsolve))
            setattr(solver, "spla", proxy)
            self._patched.append((solver, "spla", spla))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _count_wrapper(self, name, fn):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted

    def _quad_wrapper(self, quad):
        def traced_quad(func, *args, **kwargs):
            def integrand(*a):
                self.count("integrand_evals")
                return func(*a)
            return self.call("scipy.quad", quad, integrand, *args, **kwargs)
        return traced_quad

    # -- reading ---------------------------------------------------------------

    def select(self, name, op_prefix):
        return [s for s in self.spans
                if s["name"] == name and s["op"] is not None and s["op"].startswith(op_prefix)]

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _duration(span):
    return span["end"] - span["start"]


def _median_ms(spans):
    return statistics.median(map(_duration, spans)) * 1e3


def _per_call_us(fn, reps, batches=5):
    """Median over batches of the mean time of one call, in microseconds."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps * 1e6)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the tracing overhead, on one round of a workload

def overhead_run(workload, name, trace_file):
    """Each operation untraced and traced back to back.

    Reports the sums of the normalized times and, as the overhead, the
    median over operations of each pair's relative difference, which a
    burst of load during one execution does not move.
    """
    tracer = Tracer()
    untraced, traced = harness.Outcome(), harness.Outcome()
    records = {"untraced": [], "traced": []}
    ref = harness.slowdown(workload.reference)
    for i, op in enumerate(workload.round):
        for side in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
            if side == "traced":
                tracer.op = "%s#%d" % (name, i)
                with tracer.installed():
                    out, ok, raw, norm, ref = harness.timed(_span_op(tracer, op), ref, workload)
            else:
                out, ok, raw, norm, ref = harness.timed(op.run, ref, workload)
            (traced if side == "traced" else untraced).add(op, ok, raw, norm)
            records[side].append((op, out, ok))
    harness._evaluate_round(workload, records["untraced"], untraced)
    harness._evaluate_round(workload, records["traced"], traced)
    if trace_file:
        tracer.write(trace_file)
    return {
        "correct": not (untraced.problems or traced.problems),
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "problems": untraced.problems + traced.problems,
        "metrics": {
            "trace.untraced_round_s": untraced.busy_s,
            "trace.traced_round_s": traced.busy_s,
            "trace.overhead_pct": 100.0 * statistics.median(
                traced.times[label][0] / untraced.times[label][0] - 1.0 for label in untraced.times),
        },
    }


def _span_op(tracer, op):
    kind = op.label.split(":", 1)[0]
    return lambda: tracer.call("op." + kind, op.run)


# ---------------------------------------------------------------------------
# probes in fresh interpreters

def _import_probe():
    cumulative = {name: [] for name in IMPORTS}
    for _ in range(REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import symcrit; import symcrit.cli"],
                              capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in cumulative:
                cumulative[parts[2].strip()].append(int(parts[1]) / 1000.0)
    return {"import.%s_ms" % name.split(".")[-1]: statistics.median(v) for name, v in cumulative.items()}


def _cli_cold_probe(tracer, cold):
    for rep in range(REPS):
        tracer.op = "probe:cli-cold:%d" % rep
        for sub, label in CLI_PROBES.items():
            op = next(op for op in cold.round if op.label == label)
            tracer.call("cli.cold." + sub, op.run)
    return {"cli.%s_cold_s" % sub: statistics.median(map(_duration, tracer.select("cli.cold." + sub, "probe:cli-cold")))
            for sub in CLI_PROBES}


# ---------------------------------------------------------------------------
# probes in this process

def _micro_probes(sc, lab):
    """Per-call times of the interval layers on the lab scan's inputs, unwrapped."""
    points = lab.scan_inputs[0][0]
    families = [gen for inputs in lab.scan_inputs[:15] for gen, *_ in inputs[1]]
    return {
        "geometry.example_configuration_us":
            _per_call_us(lambda: [sc.example_configuration(ex, **p) for ex, p in points], 2) / len(points),
        "conditions.example_interval_us":
            _per_call_us(lambda: [sc.example_interval(ex, **p) for ex, p in points], 2) / len(points),
        "conditions.generic_interval_us":
            _per_call_us(lambda: [sc.generic_interval(*args) for args in families], 20) / len(families),
    }


def _kernel_probes(sc, sweep):
    """Per-call times of the solver kernels and the proof-chain audit, unwrapped."""
    import numpy as np

    out = {}
    for m in (96, 4096):
        problem = sc.ReducedProblem(sweep.LENGTH, 1.0, 0.4, sweep.P, np.ones(m))
        u = 1.0 + 0.3 * np.cos(problem.grid())
        out["solver.kernel_m%d_us" % m] = _per_call_us(
            lambda: (sc.quotient_value(problem, u), sc.quotient_gradient(problem, u)), 2000 if m == 96 else 200)
    report = sc.minimize(problem, sc.SolveConfig(starts=("constant", "cos1")))
    out["solver.proof_chain_us"] = _per_call_us(lambda: sc.proof_chain_diagnostics(report), 200)
    return out


def _run_labelled(tracer, ops, op_id):
    tracer.op = op_id
    return [op.run() for op in ops]


def _solver_probes(tracer, sweep_w, fine_w):
    flat96 = [op for op in sweep_w.round if op.label.startswith("flat:m96:")]
    _run_labelled(tracer, flat96, "probe:sweep")
    spans = tracer.select("solver.minimize", "probe:sweep")
    out = {
        "solver.minimize_ms": _median_ms(spans),
        "solver.gradient_evals": sum(s["counts"].get("quotient_gradient", 0) for s in spans) / len(spans),
        "solver.quotient_evals": sum(s["counts"].get("quotient_value", 0) for s in spans) / len(spans),
    }
    fine = [op for op in fine_w.round if op.label == "index1:m4096"]
    report, = _run_labelled(tracer, fine, "probe:fine")
    solves = tracer.select("scipy.spsolve", "probe:fine")
    out.update({
        "solver.minimize_fine_s": _duration(tracer.select("solver.minimize", "probe:fine")[0]),
        "solver.newton_iterations": report.newton_iterations,
        "solver.linear_solves": len(solves),
        "solver.linear_solve_s": sum(map(_duration, solves)),
    })
    return out, report


def _jsonio_probe(sc, tracer, fine_report):
    table = [{"example": ex, "interval": sc.example_interval(ex).to_json()} for ex in sc.EXAMPLE_IDS]
    profile = fine_report.to_json(include_profile=True)
    tracer.op = "probe:jsonio"
    for _ in range(5):
        span = tracer.open("jsonio.pair")
        sc.canonical_json(table)
        sc.canonical_json(profile)
        tracer.close(span)
    return {"jsonio.canonical_json_ms": _median_ms(tracer.select("jsonio.pair", "probe:jsonio"))}


def _cli_warm_probe(sc, tracer, cold):
    for rep in range(REPS):
        tracer.op = "probe:cli-warm:%d" % rep
        with contextlib.redirect_stdout(io.StringIO()):
            for label in CLI_PROBES.values():
                sc.cli.main(cold.argv[label])
    spans = tracer.select("cli.main", "probe:cli-warm")
    per_rep = [sum(_duration(s) for s in spans if s["op"].endswith(":%d" % r)) / len(CLI_PROBES)
               for r in range(REPS)]
    return {"cli.main_warm_ms": statistics.median(per_rep) * 1e3}


def _expansion_probe(tracer, lab):
    fits = [op for op in lab.round if op.label.startswith("fit:") and " dim=4 " not in op.label]
    _run_labelled(tracer, fits, "probe:expansion")
    fit_spans = tracer.select("expansion.fit_and_compare", "probe:expansion")
    return {
        "expansion.fit_ms": _median_ms(fit_spans),
        "expansion.rayleigh_quotient_ms": _median_ms(tracer.select("expansion.rayleigh_quotient", "probe:expansion")),
        "expansion.quad_calls": len(tracer.select("scipy.quad", "probe:expansion")) / len(fits),
        "expansion.integrand_evals": sum(s["counts"].get("integrand_evals", 0) for s in fit_spans) / len(fits),
    }


def probe_run(seed, trace_file):
    """Every per-layer metric but the overhead, on the workloads' own inputs."""
    import symcrit as sc
    import symcrit.cli  # noqa: F401  (loaded before install so its names get wrapped)
    from workloads import cli_cold, fine_grid, lab, sweep

    cold, sweep_w, fine_w, lab_w = (cli_cold.Workload(seed), sweep.Workload(seed),
                                    fine_grid.Workload(seed), lab.Workload(seed))
    tracer = Tracer()
    metrics = _micro_probes(sc, lab_w)
    metrics.update(_kernel_probes(sc, sweep))
    metrics.update(_import_probe())
    metrics.update(_cli_cold_probe(tracer, cold))
    with tracer.installed():
        solver_metrics, fine_report = _solver_probes(tracer, sweep_w, fine_w)
        metrics.update(solver_metrics)
        metrics.update(_jsonio_probe(sc, tracer, fine_report))
        metrics.update(_cli_warm_probe(sc, tracer, cold))
        metrics.update(_expansion_probe(tracer, lab_w))
    if trace_file:
        tracer.write(trace_file)
    return metrics


def per_layer_unit(name):
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"
