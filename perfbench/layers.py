"""Per-layer metrics derived from the spans of one traced run.

Span names are ``<module>.<qualname>`` of the wrapped function.  Metrics
about the table layer's set-up work (successor matrix, warm-up, load,
build, save, checks) sum over the whole run; every other metric covers
only the timed operations, the ``bench.ops`` span.  A metric whose source
functions the program no longer defines is absent: it reads 0 and is
listed by name.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS

MAX_DEPTH = 14
MODES = ("rollback", "open_loop")

# metric name prefix -> the wrapped functions it is measured on
SOURCES = {
    "tables.successor_matrix_s": ("tables.successor_matrix",),
    "tables.bfs_s": ("tables.build_distance_table",),
    "tables.build_pattern_dbs_s": ("tables.build_pattern_dbs",),
    "tables.save_s": ("tables.DistanceTable.save", "tables.PatternDB.save"),
    "tables.load_s": ("tables.DistanceTable.load", "tables.PatternDB.load"),
    "tables.check_rank_roundtrip_s": ("tables.check_rank_roundtrip",),
    "tables.check_neighbor_consistency_s": ("tables.check_neighbor_consistency",),
    "tables.check_admissibility_s": ("tables.check_admissibility",),
    "solver.ida_": ("solver.ida_star",),
    "solver.oracle_": ("solver.oracle_solve",),
    "executor.": ("executor.execute_episode",),
    "executor.move_yield": ("executor.execute_move_rollback",),
    "actions.compile_moves_us": ("actions.compile_moves",),
    "cube.apply_generalized_": ("cube.apply_generalized",),
    "cube.canonicalize_us": ("cube.canonicalize",),
    "evaluate.sample_at_distance_ms": ("evaluate.sample_at_distance",),
}


def _ida_star(args, result):
    return (f"d{len(result.solution)}",
            {"nodes": result.nodes_expanded, "iterations": result.iterations})


def _execute_episode(args, result):
    mode = next((a.value for a in args if getattr(a, "value", None) in MODES), "other")
    return mode, {"atomic_actions": result.atomic_actions, "replans": result.replans}


def _execute_move_rollback(args, result):
    return result.value, {}


OBSERVERS = {
    "solver.ida_star": _ida_star,
    "executor.execute_episode": _execute_episode,
    "executor.execute_move_rollback": _execute_move_rollback,
}

# counts that must repeat exactly between two runs of one commit and seed
EXACT_COUNTS = (
    [f"solver.ida_nodes.d{k}" for k in range(1, MAX_DEPTH + 1)]
    + [f"executor.atomic_actions.{m}" for m in MODES]
    + ["executor.replans", "solver.oracle_calls", "cube.apply_generalized_calls"]
)


class _Spans:
    def __init__(self, tracer):
        self.tracer = tracer
        self.a = tracer.arrays()
        ops = self.mask("bench.ops", whole_run=True)
        if ops.sum() != 1:
            raise RuntimeError("a traced run holds exactly one bench.ops span")
        w0, w1 = self.a["start"][ops][0], self.a["end"][ops][0]
        self.in_ops = (self.a["start"] >= w0) & (self.a["end"] <= w1)

    def mask(self, *names, whole_run=False):
        m = np.zeros(self.a["dur"].size, dtype=bool)
        for name in names:
            if name in self.tracer._ids:
                m |= self.a["name_id"] == self.tracer._ids[name]
        return m if whole_run else m & self.in_ops

    def total(self, *names, whole_run=False, field="dur"):
        return float(self.a[field][self.mask(*names, whole_run=whole_run)].sum())

    def mean(self, name, scale):
        d = self.a["dur"][self.mask(name)]
        return float(d.mean()) * scale if d.size else 0.0

    def notes(self, name, tag=None):
        """(span index, counts) of the observed calls of `name` in the timed ops."""
        m = self.mask(name)
        return [(i, counts) for i, (t, counts) in sorted(self.tracer.notes.items())
                if m[i] and (tag is None or t == tag)]


def per_layer_metrics(tracer, file_bytes: int, busy_s: float
                      ) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, and the absent ones.

    `busy_s` is the traced time of the timed operations; the tracing
    overhead is the cost of the spans they recorded over the rest of it.
    """
    s = _Spans(tracer)
    dur = s.a["dur"]
    out: dict[str, float] = {}

    for metric in ("tables.successor_matrix_s", "tables.build_pattern_dbs_s", "tables.save_s",
                   "tables.load_s", "tables.check_rank_roundtrip_s",
                   "tables.check_neighbor_consistency_s", "tables.check_admissibility_s"):
        out[metric] = s.total(*SOURCES[metric], whole_run=True)
    out["tables.warmup_s"] = s.total("bench.warmup", whole_run=True)
    # BFS is whatever build_distance_table does besides its wrapped callees
    out["tables.bfs_s"] = s.total("tables.build_distance_table", whole_run=True, field="self")
    out["tables.file_bytes"] = float(file_bytes)

    ida_all = s.notes("solver.ida_star")
    for k in range(1, MAX_DEPTH + 1):
        at_k = s.notes("solver.ida_star", f"d{k}")
        out[f"solver.ida_nodes.d{k}"] = float(sum(c["nodes"] for _, c in at_k))
        out[f"solver.ida_ms.d{k}"] = (float(np.median(dur[[i for i, _ in at_k]])) * 1e3
                                      if at_k else 0.0)
    nodes = sum(c["nodes"] for _, c in ida_all)
    ida_s = s.total("solver.ida_star")
    out["solver.ida_iterations_mean"] = (float(np.mean([c["iterations"] for _, c in ida_all]))
                                         if ida_all else 0.0)
    out["solver.ida_knodes_per_s"] = nodes / ida_s / 1e3 if ida_s else 0.0

    oracle = s.mask("solver.oracle_solve")
    episodes = s.mask("executor.execute_episode")
    out["solver.oracle_us"] = s.mean("solver.oracle_solve", 1e6)
    out["solver.oracle_calls"] = float(oracle.sum())
    parent = s.a["parent"]
    planner = oracle & (parent >= 0) & episodes[np.maximum(parent, 0)]
    episode_s = float(dur[episodes].sum())
    out["executor.planner_share"] = float(dur[planner].sum()) / episode_s if episode_s else 0.0

    actions = 0
    for mode in MODES:
        notes = s.notes("executor.execute_episode", mode)
        n_actions = sum(c["atomic_actions"] for _, c in notes)
        actions += n_actions
        out[f"executor.atomic_actions.{mode}"] = float(n_actions)
        out[f"executor.episode_ms.{mode}"] = (float(dur[[i for i, _ in notes]].mean()) * 1e3
                                              if notes else 0.0)
    out["executor.action_us"] = episode_s / actions * 1e6 if actions else 0.0
    out["executor.replans"] = float(sum(c["replans"] for _, c in
                                        s.notes("executor.execute_episode")))
    moves = s.notes("executor.execute_move_rollback")
    completed = sum(1 for i, _ in moves if tracer.notes[i][0] == "completed")
    out["executor.move_yield"] = completed / len(moves) if moves else 0.0

    out["actions.compile_moves_us"] = s.mean("actions.compile_moves", 1e6)
    out["cube.apply_generalized_us"] = s.mean("cube.apply_generalized", 1e6)
    out["cube.apply_generalized_calls"] = float(s.mask("cube.apply_generalized").sum())
    out["cube.canonicalize_us"] = s.mean("cube.canonicalize", 1e6)
    out["evaluate.sample_at_distance_ms"] = s.mean("evaluate.sample_at_distance", 1e3)

    layer = np.array([n.split(".", 1)[0] for n in tracer.names])[s.a["name_id"]]
    for name in LAYERS:
        out[f"{name}.self_ms"] = float(s.a["self"][s.in_ops & (layer == name)].sum()) * 1e3
    out["trace.spans"] = float(dur.size)
    spans_s = (int(s.in_ops.sum()) - 1) * tracer.span_cost()  # bench.ops is not a call
    out["trace.overhead_pct"] = 100 * spans_s / (busy_s - spans_s)

    missing = [prefix for prefix, names in SOURCES.items()
               if not any(n in tracer.installed for n in names)]
    absent = sorted(m for m in out if any(m.startswith(p) for p in missing))
    return out, absent
