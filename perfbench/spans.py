"""Span recorder for the traced run, and the per-layer metrics drawn from it.

In the traced run only, `install` wraps every pinchjac function that one
module of the library imports from another, plus `CurveConfig.fingerprint`,
`UnitJetVector.jet` (span `jacobian.jet_lookup`) and each entry of
`verify.CRITERIA`. A span is named `<defining module>.<function>`; the module
is the span's layer. Spans are kept in flat arrays while the run lasts and
written out when it ends.

A span's self time is its duration minus the durations of its direct
children. The benchmark opens one root span `op.<kind>` per timed operation,
so root self time is work that no wrapped function accounts for.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import sys
import time
import weakref
from collections import Counter, defaultdict
from math import log

LAYERS = ("algebra", "curve_model", "jacobian", "abel_jacobi", "contraction",
          "modification", "obstruction", "dsl", "verify", "cli", "builders")
CLI_COMMANDS = ("jacobian", "aj", "probe", "modifiable", "modify", "witness", "contract", "verify")

# Per-call counters and metrics reported as `<span>.calls` and `<span>.self_s`.
CALL_METRICS = (
    "algebra.unit_log", "algebra.jet_of_rational_function",
    "curve_model.require_valid", "curve_model.fingerprint", "curve_model.is_smooth_point",
    "curve_model.dual_graph", "curve_model.connected_component_count",
    "curve_model.component_partition_without",
    "jacobian.jacobian_structure", "jacobian.class_reduce", "jacobian.unit_jet_vector",
    "jacobian.jet_lookup",
    "abel_jacobi.aj_eval", "abel_jacobi.divisor_class", "abel_jacobi.aj_injectivity_probe",
    "contraction.contract_with_generators", "contraction.contraction_generators",
    "contraction.subalgebra_membership",
    "modification.modifiable_sites", "modification.indeterminate_sites", "modification.modify",
    "obstruction.obstruction_witness", "obstruction.liftability_test",
    "dsl.parse_curve_dsl", "dsl.print_curve_dsl",
)
# Log-log slope of call duration against the size recorded with each call.
SLOPES = {
    "algebra.unit_log.slope_vs_order": "algebra.unit_log",
    "jacobian.class_reduce.slope_vs_branches": "jacobian.class_reduce",
    "abel_jacobi.aj_eval.slope_vs_branches": "abel_jacobi.aj_eval",
    "modification.modifiable_sites.slope_vs_branches": "modification.modifiable_sites",
    "contraction.contract_with_generators.slope_vs_degree": "contraction.contract_with_generators",
}


def _branch_count(args) -> int:
    return sum(len(s.branches) for s in args[0].singularities)


def _weighted_branch_count(args) -> int:
    """Branches counted with multiplicity: the branch count of a reduced curve,
    and on `thick` a stand-in for the multiplicity ladder."""
    return sum(s.total_multiplicity for s in args[0].singularities)


class Recorder:
    """Spans in flat arrays; `active` is on only while a timed operation runs."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.size = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack: list[int] = []
        self.active = False
        self.counters: Counter = Counter()
        self._validated: dict[int, weakref.ref] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str, size: int = -1) -> int:
        index = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.size.append(size)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, name: str, start: int, end: int, parent: int = -1) -> None:
        """A finished span timed elsewhere."""
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.size.append(-1)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, fn, name: str):
        size_of, observe = _HOOKS.get(name, (None, None))
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(recorder, args)
            index = recorder.open(name, size_of(args) if size_of is not None else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        return traced

    def _arrays(self):
        return (self.name, self.parent, self.size, self.start, self.end)

    def dump(self, path, exit_ns: int | None = None) -> None:
        """A JSON header line, then the five span arrays as raw machine values.

        `exit_ns` marks when a child process began to shut down; `adopt` turns
        the rest of the parent's span into `cli.exit`.
        """
        header = {"names": self.names, "counters": self.counters, "spans": len(self.name),
                  "exit_ns": exit_ns}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in self._arrays():
                column.tofile(handle)

    def adopt(self, path, parent: int) -> None:
        """Append spans dumped by another process; its roots hang under `parent`.

        perf_counter_ns reads CLOCK_MONOTONIC on Linux, shared by all
        processes, so the child's timestamps line up with ours.
        """
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            columns = []
            for column in self._arrays():
                loaded = array.array(column.typecode)
                loaded.fromfile(handle, header["spans"])
                columns.append(loaded)
        ids = [self._name_id(n) for n in header["names"]]
        self.counters.update(header["counters"])
        base = len(self.name)
        names, parents, sizes, starts, ends = columns
        self.name.extend(ids[i] for i in names)
        self.parent.extend(parent if up < 0 else base + up for up in parents)
        self.size.extend(sizes)
        self.start.extend(starts)
        self.end.extend(ends)
        if header["exit_ns"] is not None:
            self.add("cli.exit", header["exit_ns"], self.end[parent], parent)


def _observe_validation(recorder: Recorder, args) -> None:
    config = args[0]
    ref = recorder._validated.get(id(config))
    if ref is not None and ref() is config:
        recorder.counters["require_valid.repeat"] += 1
    else:
        recorder._validated[id(config)] = weakref.ref(config)


def _observe_log_input(recorder: Recorder, args) -> None:
    if args[0].is_constant:
        recorder.counters["unit_log.constant_input"] += 1


def _observe_bytes(recorder: Recorder, args) -> None:
    recorder.counters["parse_curve_dsl.bytes"] += len(args[0].encode("utf-8"))


_HOOKS = {
    "curve_model.require_valid": (None, _observe_validation),
    "algebra.unit_log": (lambda args: args[0].order, _observe_log_input),
    "dsl.parse_curve_dsl": (None, _observe_bytes),
    "jacobian.class_reduce": (_weighted_branch_count, None),
    "abel_jacobi.aj_eval": (_weighted_branch_count, None),
    "modification.modifiable_sites": (_branch_count, None),
    "contraction.contract_with_generators": (lambda args: args[0].degree, None),
}


def install(recorder: Recorder) -> None:
    """Import every pinchjac module and route cross-module calls through spans."""
    import pinchjac

    for info in pkgutil.iter_modules(pinchjac.__path__):
        importlib.import_module(f"pinchjac.{info.name}")
    modules = {name: m for name, m in sys.modules.items()
               if m is not None and (name == "pinchjac" or name.startswith("pinchjac."))}
    wrapped = {}
    for module in modules.values():
        for obj in vars(module).values():
            home = getattr(obj, "__module__", None)
            if inspect.isfunction(obj) and home in modules and home != module.__name__:
                if id(obj) not in wrapped:
                    name = f"{home.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrapped[id(obj)] = (obj, recorder.wrap(obj, name))
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                setattr(module, attr, wrapped[id(obj)][1])
    curve_model = modules["pinchjac.curve_model"]
    jacobian = modules["pinchjac.jacobian"]
    verify = modules["pinchjac.verify"]
    curve_model.CurveConfig.fingerprint = recorder.wrap(
        curve_model.CurveConfig.fingerprint, "curve_model.fingerprint")
    jacobian.UnitJetVector.jet = recorder.wrap(jacobian.UnitJetVector.jet, "jacobian.jet_lookup")
    verify.CRITERIA = tuple(recorder.wrap(c, f"verify.criterion_{i}")
                            for i, c in enumerate(verify.CRITERIA, start=1))


def _slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(median duration) against log(size)."""
    by_size = defaultdict(list)
    for size, duration in points:
        if size > 0 and duration > 0:
            by_size[size].append(duration)
    if len(by_size) < 2:
        return 0.0
    xs = [log(s) for s in by_size]
    ys = [log(statistics.median(d)) for d in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def summarize(recorder: Recorder) -> dict:
    """Calls, self time and sized durations per span name; layer and root totals."""
    n = len(recorder.name)
    duration = [recorder.end[i] - recorder.start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if recorder.parent[i] >= 0:
            child[recorder.parent[i]] += duration[i]
    calls, self_ns = Counter(), Counter()
    sized = defaultdict(list)
    durations = defaultdict(list)
    for i in range(n):
        name = recorder.names[recorder.name[i]]
        calls[name] += 1
        self_ns[name] += duration[i] - child[i]
        durations[name].append(duration[i])
        if recorder.size[i] > 0:
            sized[name].append((recorder.size[i], duration[i]))
    layer_ns = Counter()
    for name, ns in self_ns.items():
        layer_ns[name.split(".", 1)[0]] += ns
    op_ns = sum(duration[i] for i in range(n) if recorder.parent[i] < 0)
    return {"calls": calls, "self_ns": self_ns, "sized": sized, "durations": durations,
            "layer_ns": layer_ns, "op_ns": op_ns}


def per_layer_metrics(recorder: Recorder, overhead_ratio: float, cli_p50_ms: dict,
                      peak_coeff_bits: int) -> tuple[dict, dict]:
    """Every per-layer metric (0 where a workload never reaches the layer) and the summary."""
    s = summarize(recorder)
    calls, self_ns, counters = s["calls"], s["self_ns"], recorder.counters
    m = {}
    for name in CALL_METRICS:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    for metric, name in SLOPES.items():
        m[metric] = (_slope(s["sized"][name]), "ratio")
    log_calls = calls["algebra.unit_log"]
    m["algebra.unit_log.constant_input_ratio"] = (
        counters["unit_log.constant_input"] / log_calls if log_calls else 0.0, "ratio")
    m["algebra.peak_coeff_bits"] = (peak_coeff_bits, "bits")
    valid_calls = calls["curve_model.require_valid"]
    m["curve_model.require_valid.repeat_ratio"] = (
        counters["require_valid.repeat"] / valid_calls if valid_calls else 0.0, "ratio")
    sites_calls = calls["modification.modifiable_sites"] + calls["modification.indeterminate_sites"]
    m["modification.component_counts_per_sites_call"] = (
        calls["curve_model.connected_component_count"] / sites_calls if sites_calls else 0.0,
        "ratio")
    m["dsl.parse_curve_dsl.bytes"] = (counters["parse_curve_dsl.bytes"], "bytes")
    for i in range(1, 9):
        runs = s["durations"][f"verify.criterion_{i}"]
        m[f"verify.criterion_{i}_s"] = (statistics.median(runs) / 1e9 if runs else 0.0, "s")
    imports = s["durations"]["cli.import"]
    m["cli.import_s"] = (statistics.median(imports) / 1e9 if imports else 0.0, "s")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.p50_ms"] = (cli_p50_ms.get(command, 0.0), "ms")
    op_ns = s["op_ns"] or 1
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (s["layer_ns"][layer] / op_ns, "ratio")
    m["trace.unattributed_share"] = (s["layer_ns"]["op"] / op_ns, "ratio")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m, s


def predictions(workload: str, m: dict, s: dict) -> list[dict]:
    """The workload-design claims, each marked as holding or not."""
    share = {layer: m[f"{layer}.self_share"][0] for layer in LAYERS}
    op_ns = s["op_ns"] or 1
    span_share = {name: ns / op_ns for name, ns in s["self_ns"].items()}
    out = []

    def claim(text, holds, observed):
        out.append({"claim": text, "holds": bool(holds), "observed": observed})

    unattributed = m["trace.unattributed_share"][0]
    overhead = m["trace.overhead_ratio"][0]
    claim("layer self times add up to the traced operation time within the tracing overhead",
          unattributed <= max(0.05, 1 - overhead), round(unattributed, 4))
    graph = share["modification"] + span_share.get("curve_model.connected_component_count", 0)
    lookup = (span_share.get("jacobian.jet_lookup", 0)
              + span_share.get("curve_model.require_valid", 0)
              + span_share.get("curve_model.validate", 0))
    contraction_calls = sum(c for n, c in s["calls"].items() if n.startswith("contraction."))
    rest = {k: v for k, v in share.items() if k != "algebra"}
    if workload == "thick":
        claim("algebra self time is the largest share", share["algebra"] >= max(rest.values()),
              round(share["algebra"], 4))
        claim("jet lookup plus validation is small", lookup < 0.05, round(lookup, 4))
    if workload == "edit":
        claim("algebra self time is near 0", share["algebra"] < 0.02, round(share["algebra"], 4))
        others = dict(share, modification=0.0)
        others["curve_model"] -= span_share.get("curve_model.connected_component_count", 0)
        claim("modification plus connected_component_count is the largest share",
              graph >= max(others.values()), round(graph, 4))
    if workload in ("wide", "thick"):
        claim("modification plus connected_component_count is 0", graph == 0, round(graph, 4))
    if workload == "wide":
        claim("jet lookup plus validation is a major share", lookup >= 0.2, round(lookup, 4))
    if workload == "cli":
        claim("contraction appears", contraction_calls > 0, contraction_calls)
    else:
        claim("contraction does not appear", contraction_calls == 0, contraction_calls)
    return out
