"""Turns oasis_bench's raw measurements into judged ops and named metrics.

Pure functions only; run.py does the building, running and printing.
"""

import json
import math
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
STRATEGIES = ("oasis-greedy", "first-fit-decreasing", "local-threshold", "predictive")
CLUSTER_KINDS = ("rack_day", "strategy_day", "datacenter_day")
# Fig 8: greedy weekday savings on the 30+4 rack.
PAPER_WEEKDAY_SAVINGS = 0.28


def load_spec():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


# --- percentiles ------------------------------------------------------------

def quantile(values, p):
    """Nearest-rank percentile p (0-100] of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n, preferred=90, min_beyond=10):
    """The tail percentile to report for n samples: `preferred` when at least
    `min_beyond` samples lie beyond it, else the highest whole percentile that
    has that many beyond it, else None."""
    for p in range(preferred, 49, -1):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


# --- judging ops ------------------------------------------------------------

def _finite_nonneg(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in values)


def op_failures(op, first_digest):
    """Why `op` failed (empty list: it passed). `first_digest` maps an input
    key to the digest of its first execution in the run; it is updated."""
    reasons = []
    if op["error"]:
        reasons.append("error: " + op["error"])
    if op["violations"]:
        reasons.append("%d invariant violations" % op["violations"])
    if op["kind"] in CLUSTER_KINDS:
        parts = (op["home_j"], op["consolidation_j"], op["memory_server_j"], op["baseline_j"])
        if not _finite_nonneg(*parts):
            reasons.append("energy part non-finite or negative")
        savings = [op["savings"]]
        if op["kind"] == "datacenter_day":
            savings = [op["local_savings"], op["assisted_savings"], op["global_savings"]]
            if not op["local_savings"] <= op["assisted_savings"] <= op["global_savings"]:
                reasons.append("savings order local <= assisted <= global broken")
        if not all(math.isfinite(s) and 0.0 <= s < 1.0 for s in savings):
            reasons.append("savings outside [0, 1)")
    elif op["kind"] == "oracle_solve":
        lb, sched, base = op["lower_bound_j"], op["schedule_j"], op["baseline_j"]
        if not (_finite_nonneg(lb, sched, base) and lb <= sched <= base):
            reasons.append("oracle breaks lower_bound <= schedule <= baseline")
    else:
        reasons.append("unknown op kind " + op["kind"])
    expected = first_digest.setdefault(op["key"], op["digest"])
    if op["digest"] != expected:
        reasons.append("digest %s differs from the first execution's %s" % (op["digest"], expected))
    return reasons


def judge(ops):
    """(failed count, failure lines) over every op, in execution order."""
    first_digest = {}
    failed = 0
    lines = []
    for index, op in enumerate(ops):
        reasons = op_failures(op, first_digest)
        if reasons:
            failed += 1
            if len(lines) < 20:
                lines.append("op %d %s: %s" % (index, op["key"], "; ".join(reasons)))
    return failed, lines


def reference_ops(ops):
    """First execution of every input key, checked and unchecked apart: the
    deterministic result set."""
    seen = {}
    for op in ops:
        seen.setdefault((op["key"], op["checked"]), op)
    return list(seen.values())


def results_digest(ops):
    """FNV-1a over (key, digest) of the reference set, in key order."""
    h = 0xcbf29ce484222325
    for op in sorted(reference_ops(ops), key=lambda o: (o["key"], o["checked"])):
        for byte in ("%s/%d=%s;" % (op["key"], op["checked"], op["digest"])).encode():
            h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def work_counts(ops):
    ref = reference_ops(ops)
    days = [o for o in ref if o["kind"] in CLUSTER_KINDS]
    return {
        "rack_days": sum(o["rack_days"] for o in days),
        "events": sum(o["events"] for o in days),
        "migrations": sum(o["migrations"] for o in days),
        "host_wakes": sum(o["host_wakes"] for o in days),
        "oracle_solves": sum(1 for o in ref if o["kind"] == "oracle_solve"),
        "checks_run": sum(o["checks"] for o in days),
        "faults_injected": sum(o["faults_injected"] for o in days),
        "faults_recovered": sum(o["faults_recovered"] for o in days),
        "migrated_bytes": sum(o["migrated_bytes"] for o in days),
    }


# --- end-to-end metrics -----------------------------------------------------

def headline_ops(ops):
    """The first cycle's greedy rack-days (or datacenter days): what
    energy_savings and transition_delay_s.mean summarize."""
    first = [o for o in ops if o["cycle"] == 0]
    return [o for o in first
            if o["kind"] in ("rack_day", "datacenter_day")
            or (o["kind"] == "strategy_day" and o["key"].endswith("/oasis-greedy"))]


def _rack(op):
    return op["key"].rsplit("/", 1)[0]


def verification_savings(ops):
    """(rack, savings) of the first unchecked oasis-greedy verification day."""
    for op in ops:
        if op["cycle"] < 0 and op["kind"] == "rack_day":
            return _rack(op), op["savings"]
    return "missing", float("nan")


def oracle_gap(ops):
    """oasis-greedy's energy over the oracle schedule's, minus 1, pooled over
    every rack the run solved."""
    ref = reference_ops(ops)
    greedy = {_rack(o): o for o in ref if o["key"].endswith("/oasis-greedy")}
    pairs = [(greedy[_rack(o)], o) for o in ref
             if o["kind"] == "oracle_solve" and _rack(o) in greedy]
    schedule = sum(solve["schedule_j"] for _, solve in pairs)
    if schedule <= 0:
        return float("nan")
    energy = sum(g["home_j"] + g["consolidation_j"] + g["memory_server_j"] for g, _ in pairs)
    return energy / schedule - 1.0


def end_to_end(raw):
    ops = raw["ops"]
    timed = [o for o in ops if o["cycle"] >= 0]
    ms = [o["ms"] for o in timed]
    headline = headline_ops(ops)
    delay_count = sum(o["delay_count"] for o in headline)
    metrics = {
        "vm_days_per_s": sum(o["vm_days"] for o in timed) / (sum(ms) / 1000.0),
        "op_ms.p50": quantile(ms, 50),
        "op_ms.p90": quantile(ms, 90),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "energy_savings": statistics.fmean(o["savings"] for o in headline),
        "transition_delay_s.mean":
            sum(o["delay_sum_s"] for o in headline) / delay_count if delay_count else 0.0,
        "oracle_gap": oracle_gap(ops),
    }
    tail = tail_percentile(len(ms))
    if tail is not None and tail != 90:
        # Too few ops for a p90 with 10 samples beyond it: also report the
        # highest percentile that has them, under its own name.
        metrics["op_ms.p%d" % tail] = quantile(ms, tail)
    return metrics


# --- per-layer metrics (traced run) -----------------------------------------

def span_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def self_times(spans):
    """Self time (ms) of every span: its duration minus its children's."""
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ms[span["parent"]] += span_ms(span)
    return [span_ms(s) - child_ms[i] for i, s in enumerate(spans)]


def _median_ms(spans, predicate):
    values = [span_ms(s) for s in spans if predicate(s)]
    return statistics.median(values) if values else 0.0


def _share(part, whole):
    return part / whole if whole > 0 else 0.0


def check_walk_ms(ops):
    """Checked minus unchecked oasis-greedy day on the verification rack."""
    verify = [o for o in ops if o["cycle"] < 0 and o["key"].endswith("/oasis-greedy")]
    checked = [o for o in verify if o["checked"]]
    if not checked:
        return 0.0
    plain = [o for o in verify if not o["checked"] and o["key"] == checked[0]["key"]]
    return checked[0]["ms"] - plain[0]["ms"] if plain else 0.0


def per_layer(raw, spans):
    ops = raw["ops"]
    traced_cycles = {i for i, c in enumerate(raw["cycles"]) if c["traced"]}
    traced_ops = [o for o in ops if o["cycle"] in traced_cycles]
    rack_days_traced = sum(o["rack_days"] for o in traced_ops)
    prof = raw["prof"]
    selfs = self_times(spans)
    roots_ms = sum(span_ms(s) for s in spans if s["parent"] < 0)
    module_self = {}
    for span, self_ms in zip(spans, selfs):
        module_self[span["module"]] = module_self.get(span["module"], 0.0) + self_ms

    def checked(span):
        return span["op"] >= 0 and ops[span["op"]]["checked"]

    gen = [s for s in spans if s["name"] == "trace.generate" and s["items"] > 0]
    ref = reference_ops(ops)
    days = [o for o in ref if o["kind"] in CLUSTER_KINDS]
    day_count = sum(o["rack_days"] for o in days)
    solves = [o for o in ref if o["kind"] == "oracle_solve"]
    dc_ops = [o for o in ref if o["kind"] == "datacenter_day"]
    dc_op_ms = sum(span_ms(s) for s in spans if s["name"] == "op.datacenter_day")
    setup_ms = sum(raw["setup_s"]) * 1000.0
    cycles = raw["cycles"]
    traced_wall = [c["wall_s"] for c in cycles if c["traced"]]
    plain_wall = [c["wall_s"] for c in cycles if not c["traced"]]
    pairs = min(len(traced_wall), len(plain_wall))

    def dc_sum(prefix):
        return sum(span_ms(s) for s in spans if s["name"].startswith(prefix))

    def per_day(key):
        return sum(o[key] for o in days) / day_count if day_count else 0.0

    metrics = {
        "trace.gen_ms_per_1k_user_days":
            statistics.median(span_ms(s) * 1000.0 / s["items"] for s in gen) if gen else 0.0,
        "cluster.ctor_ms": _median_ms(spans, lambda s: s["name"] == "cluster.ctor"),
        "cluster.day_ms": _median_ms(
            spans, lambda s: s["name"] == "cluster.run.oasis-greedy" and not checked(s)),
        "cluster.events_per_day": per_day("events"),
        "cluster.migrations_per_day": per_day("migrations"),
        "cluster.host_wakes_per_day": per_day("host_wakes"),
        "sim.events_per_s": _share(prof["sim_events"],
                                   prof["sim_dispatch_s"] + prof["sim_heap_pop_s"]),
        "sim.dispatch_ms_per_day": _share(prof["sim_dispatch_s"] * 1000.0, rack_days_traced),
        "sim.heap_pop_ms_per_day": _share(prof["sim_heap_pop_s"] * 1000.0, rack_days_traced),
        "exp.parallel_efficiency": prof["parallel_efficiency"],
        "exp.worker_idle_share": prof["worker_idle_share"],
        "exp.merge_serial_fraction": prof["merge_serial_fraction"],
        "exp.steals": prof["steals"],
        "dc.shard_run_share": _share(dc_sum("dc.shard_run"), dc_op_ms),
        "dc.coordinate_share.local": _share(dc_sum("dc.coordinate.local"), dc_op_ms),
        "dc.coordinate_share.global": _share(dc_sum("dc.coordinate.global"), dc_op_ms),
        "dc.coordinate_share.assisted": _share(dc_sum("dc.coordinate.assisted"), dc_op_ms),
        "dc.ledger_share": _share(dc_sum("dc.ledger."), dc_op_ms),
        "dc.topology_share_of_setup": _share(dc_sum("dc.topology"), setup_ms),
        "dc.drains": sum(o["drains"] for o in dc_ops),
        "dc.vms_drained": sum(o["vms_drained"] for o in dc_ops),
        "oracle.solve_ms": _median_ms(spans, lambda s: s["name"] == "oracle.solve"),
        "oracle.schedule_over_bound": _share(sum(o["schedule_j"] for o in solves),
                                             sum(o["lower_bound_j"] for o in solves)) - 1.0,
        "check.walk_ms_per_day": check_walk_ms(ops),
        "check.checks_run": sum(o["checks"] for o in days),
        "check.violations": sum(o["violations"] for o in ops),
        "fault.injected": sum(o["faults_injected"] for o in days),
        "fault.recovered": sum(o["faults_recovered"] for o in days),
        "net.migrated_gib_per_day": per_day("migrated_bytes") / 2**30,
        "obs.traced_overhead_frac":
            _share(sum(traced_wall[:pairs]), sum(plain_wall[:pairs])) - 1.0 if pairs else 0.0,
    }
    for strategy in STRATEGIES:
        metrics["cluster.strategy.%s.day_ms" % strategy] = _median_ms(
            spans, lambda s, name="cluster.run." + strategy: s["name"] == name and checked(s))
    for module in ("bench", "trace", "cluster", "check", "oracle", "dc"):
        metrics["self_share." + module] = _share(module_self.get(module, 0.0), roots_ms)
    return metrics


def self_time_table(raw, spans):
    """Traced op wall time broken into self time: per op kind by span name,
    then over every traced op by module, with the estimated check walk
    carved out of the cluster rows. An op's own self time is the remainder."""
    ops = raw["ops"]
    selfs = self_times(spans)
    op_spans = [s for s in spans if s["parent"] < 0 and s["name"].startswith("op.")]
    lines = []

    def add_rows(title, rows, wall):
        lines.append("%s, %.1f ms traced wall" % (title, wall))
        for name, self_ms in sorted(rows.items(), key=lambda kv: -kv[1]):
            lines.append("  %-36s %10.1f ms  %6.2f%%"
                         % (name, self_ms, 100.0 * _share(self_ms, wall)))

    for kind in sorted({s["name"] for s in op_spans}):
        op_ids = {s["op"] for s in op_spans if s["name"] == kind}
        rows = {}
        for span, self_ms in zip(spans, selfs):
            if span["op"] in op_ids:
                name = "remainder" if span["parent"] < 0 else span["name"]
                rows[name] = rows.get(name, 0.0) + self_ms
        add_rows("%s: %d ops" % (kind, len(op_ids)), rows,
                 sum(span_ms(s) for s in op_spans if s["name"] == kind))

    op_ids = {s["op"] for s in op_spans}
    modules = {}
    for span, self_ms in zip(spans, selfs):
        if span["op"] in op_ids:
            module = "remainder" if span["parent"] < 0 else span["module"]
            modules[module] = modules.get(module, 0.0) + self_ms
    walk = check_walk_ms(ops) * sum(ops[i]["rack_days"] for i in op_ids if ops[i]["checked"])
    if walk > 0.0 and "cluster" in modules:
        modules["cluster"] -= walk
        modules["check walk (estimated)"] = walk
    add_rows("every traced op by module: %d ops" % len(op_ids), modules,
             sum(span_ms(s) for s in op_spans))
    return lines
