"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into each layer of switchctl by patching
the layer's public functions from the outside, at every module that
imported them; nothing under ``src/`` knows about tracing.  Each span is
``[name, start, end, parent, op]``: ``parent`` is the index of the span
that was open when it started (-1 for none) and ``op`` is the operation
id.  Spans stay in memory until the run writes them out at its end.

A layer's busy time is its self time: span time minus the time its child
spans cover.
"""

import inspect
import time
import warnings
from collections import defaultdict

# counts that must repeat exactly between two traced operations on one seed
COUNT_METRICS = (
    "pde.rows_batch_calls", "pde.row_steps", "pde.minimizer_calls",
    "pde.representation_calls", "pde.truncation_warnings",
    "equilibrium.sweeps", "equilibrium.slabs", "equilibrium.damped_sweeps",
    "equilibrium.slab_halvings", "equilibrium.theta_mb",
    "partition.players", "costs.spike_solves", "merton.phi_iterations",
    "merton.policy_calls", "models.dirichlet_calls", "models.psi_clamps",
    "sde.streams", "sde.paths", "sde.path_steps", "sde.jumps",
    "switching.mark_calls", "cli.artifact_bytes",
)

# count metric -> the span whose occurrences it counts
SPAN_COUNTS = {
    "pde.rows_batch_calls": "pde.rows_batch",
    "pde.minimizer_calls": "pde.minimizer",
    "pde.representation_calls": "pde.representation",
    "merton.policy_calls": "merton.policy",
    "models.dirichlet_calls": "models.dirichlet",
    "sde.streams": "sde.stream",
    "switching.mark_calls": "switching.mark",
    "costs.spike_solves": "costs.spike_gain",
}

# span name -> per-layer self-time metric
TIME_METRICS = {
    "pde.rows_batch": "pde.rows_batch_s",
    "pde.minimizer": "pde.minimizer_s",
    "pde.hjb": "pde.hjb_s",
    "pde.representation": "pde.representation_s",
    "equilibrium.strategy": "equilibrium.strategy_s",
    "equilibrium.residual": "equilibrium.residual_s",
    "partition.cycles": "partition.cycles_s",
    "costs.spike_ladder": "costs.spike_ladder_s",
    "merton.phi_ode": "merton.phi_ode_s",
    "merton.partition_phi": "merton.partition_phi_s",
    "merton.policy": "merton.policy_s",
    "models.dirichlet": "models.dirichlet_s",
    "models.q_table": "models.q_table_s",
    "sde.stream": "sde.stream_s",
    "sde.ensemble": "sde.ensemble_s",
    "switching.mark": "switching.mark_s",
    "switching.rate_matrix": "switching.rate_matrix_s",
    "fields.write": "fields.write_s",
    "config.parse": "config.parse_s",
}


class Tracer:
    """Span and counter store for a sequence of traced operations."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.op_counts = []
        self._stack = []
        self._restores = []
        self.models = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """``fn`` recorded as a span ``name``; ``after(bound, result)``
        runs once the span has closed, with the call's bound arguments."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, out)
            return out

        return wrapper

    def add(self, key, amount=1):
        self.op_counts[self.op][key] += amount

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)`` until ``unpatch``."""
        if attr in vars(owner):
            raw = vars(owner)[attr]
            self._restores.append(lambda: setattr(owner, attr, raw))
        else:
            self._restores.append(lambda: delattr(owner, attr))
        setattr(owner, attr, make(getattr(owner, attr)))

    def patch_item(self, mapping, key, make):
        """Replace ``mapping[key]`` by ``make(original)`` until ``unpatch``."""
        original = mapping[key]
        self._restores.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = make(original)

    def unpatch(self):
        while self._restores:
            self._restores.pop()()

    def run_op(self, fn):
        """Run ``fn()`` as one traced operation under a root span ``op``.

        The layer boundaries are patched for the call only.  Returns
        ``fn``'s result.
        """
        self.op += 1
        self.op_counts.append(defaultdict(int))
        self.models = []            # models built during the operation
        try:
            instrument(self)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = self.wrap(fn, "op")()
        finally:
            self.unpatch()
        from switchctl.pde import TruncationWarning
        self.add("pde.truncation_warnings",
                 sum(issubclass(w.category, TruncationWarning) for w in caught))
        self.add("models.psi_clamps",
                 sum(m.psi_clamp_count for m in self.models))
        return out

    # -- reduction ---------------------------------------------------------

    def self_times(self, op):
        """{span name: (self seconds, span count)} for one operation."""
        child = defaultdict(float)
        for name, start, end, parent, span_op in self.spans:
            if span_op == op and parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for idx, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op == op:
                out[name][0] += end - start - child[idx]
                out[name][1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def layer_metrics(self, op):
        """Per-layer metrics of one operation: self times and counts."""
        times = self.self_times(op)
        counts = self.op_counts[op]
        out = {metric: times.get(name, (0.0, 0))[0]
               for name, metric in TIME_METRICS.items()}
        for key in COUNT_METRICS:
            out[key] = times.get(SPAN_COUNTS[key], (0.0, 0))[1] \
                if key in SPAN_COUNTS else counts.get(key, 0)
        out["pde.us_per_row_step"] = _per(out["pde.rows_batch_s"],
                                          out["pde.row_steps"], 1e6)
        out["pde.minimizer_us_per_node"] = _per(
            out["pde.minimizer_s"], counts.get("pde.minimizer_nodes", 0), 1e6)
        out["equilibrium.useful_sweep_frac"] = _per(
            out["equilibrium.slabs"], out["equilibrium.sweeps"], 1.0)
        out["sde.us_per_path"] = _per(out["sde.stream_s"], out["sde.streams"],
                                      1e6)
        out["sde.ns_per_path_step"] = _per(out["sde.ensemble_s"],
                                           out["sde.path_steps"], 1e9)
        return out

    def dump(self):
        """Spans in a compact JSON-ready form: names by index into ``names``
        and times in whole microseconds from the first span's start."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"fields": ["name", "start_us", "end_us", "parent", "op"],
                "names": names,
                "spans": [[index[n], round((a - t0) * 1e6),
                           round((b - t0) * 1e6), p, op]
                          for n, a, b, p, op in self.spans]}


def _per(num, den, scale):
    return num / den * scale if den else 0.0


def instrument(tracer):
    """Patch every layer boundary the per-layer metrics are read from."""
    from switchctl import (cli, costs, equilibrium, fields, merton, models,
                           partition, pde, sde, switching)

    t = tracer

    def span(name, after=None):
        return lambda fn: t.wrap(fn, name, after)

    def on_rows_batch(a, out):
        n_t = len(a["times"])
        active = a["active_from"]
        n_rows = len(a["anchors"])
        steps = n_rows * (n_t - 1) if active is None else \
            int(sum(n_t - 1 - int(r) for r in active))
        t.add("pde.row_steps", steps)

    for mod in (pde, equilibrium):
        t.patch(mod, "solve_rows_batch", span("pde.rows_batch", on_rows_batch))

    def on_minimizer(a, out):
        t.add("pde.minimizer_nodes", a["problem"].grid.n_x * a["problem"].m)

    for mod in (pde, equilibrium, costs):
        t.patch(mod, "controls_on_grid", span("pde.minimizer", on_minimizer))
    for mod in (pde, partition):
        t.patch(mod, "solve_hjb", span("pde.hjb"))
    for mod in (pde, partition, costs):
        t.patch(mod, "solve_representation", span("pde.representation"))

    def on_equilibrium(a, sol):
        t.add("equilibrium.theta_mb", sol.theta.values.nbytes / 1e6)
        prev = float("inf")
        for entry in sol.log:
            if entry.get("event") == "slab_halved":
                t.add("equilibrium.slab_halvings")
                continue
            change = entry["diag_change"]
            t.add("equilibrium.sweeps")
            if entry["sweep"] == 1:
                t.add("equilibrium.slabs")
                prev = float("inf")
            # the solver damps a sweep whose change grew and did not converge
            elif a["tol"] <= change and change > prev \
                    and entry["sweep"] < a["max_sweeps"]:
                t.add("equilibrium.damped_sweeps")
            prev = change

    t.patch(cli, "solve_equilibrium", span("equilibrium.solve", on_equilibrium))
    t.patch(equilibrium, "strategy_from_diagonal", span("equilibrium.strategy"))
    t.patch(cli, "equilibrium_residual", span("equilibrium.residual"))

    t.patch(cli, "run_cycles", span(
        "partition.cycles",
        lambda a, out: t.add("partition.players", a["partition"].n_players)))
    t.patch(cli, "spike_ladder", span("costs.spike_ladder"))
    t.patch(costs, "spike_gain", span("costs.spike_gain"))

    t.patch(merton, "solve_equilibrium_ode", span(
        "merton.phi_ode",
        lambda a, out: t.add("merton.phi_iterations", len(out.iterations))))
    t.patch(merton, "partition_phi", span("merton.partition_phi"))

    def boundary_factory(make):
        def factory(*args, **kwargs):
            boundary = make(*args, **kwargs)
            return lambda tau: t.wrap(boundary(tau), "models.dirichlet")
        return factory

    for name in ("merton_equilibrium_boundary", "merton_partition_boundary"):
        t.patch(cli, name, boundary_factory)

    def model_preset(make):
        def build():
            model = make()
            t.models.append(model)
            return model
        return build

    for key in list(models.MODEL_PRESETS):
        t.patch_item(models.MODEL_PRESETS, key, model_preset)

    def geometry_preset(make):
        def build(*args, **kwargs):
            geometry = make(*args, **kwargs)
            instrument_geometry(t, geometry)
            return geometry
        return build

    for key in list(models.GEOMETRY_PRESETS):
        t.patch_item(models.GEOMETRY_PRESETS, key, geometry_preset)

    t.patch(models, "rate_matrix_table", span("models.q_table"))
    for mod in (switching, cli):
        t.patch(mod, "rate_matrix", span("switching.rate_matrix"))

    t.patch(sde, "path_stream", span("sde.stream"))

    def on_ensemble(a, res):
        n_steps = max(1, int(round((a["t_end"] - a["init"][0]) / a["h"])))
        t.add("sde.paths", a["n_paths"])
        t.add("sde.path_steps", a["n_paths"] * n_steps)
        t.add("sde.jumps", int(res.n_jumps.sum()))

    for mod in (sde, merton):
        t.patch(mod, "simulate_ensemble", span("sde.ensemble", on_ensemble))

    for cls, attr in ((fields.ValueField, "to_csv"),
                      (fields.ValueField, "to_binary"),
                      (fields.FeedbackStrategy, "to_csv")):
        t.patch(cls, attr, span("fields.write"))
    t.patch(cli, "parse_config", span("config.parse"))


def instrument_geometry(tracer, geometry):
    """Trace ``mark_to_jump_array`` on one geometry instance."""
    tracer.patch(geometry, "mark_to_jump_array",
                 lambda fn: tracer.wrap(fn, "switching.mark"))
