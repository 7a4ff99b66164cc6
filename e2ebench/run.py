"""End-to-end benchmark of the ``shex-serve`` daemon, with layer attribution.

    python3 e2ebench/run.py --workload validate-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client drives a real daemon process
over a Unix socket in a closed loop (the next request is sent only after
the previous reply arrived), checks every answer against the independent
oracle or a ground truth known by construction, and prints a report line
followed by the result line (the last line of standard output)::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` a traced run's
per-layer metrics.  ``--workload all`` runs the three workloads in turn;
``--repeat K`` runs one workload K times and prints each end-to-end metric's
median and interquartile range over the median, and fails when two runs of
the same seed disagree on any work count.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from proc import PYTHONHASHSEED, Client, Daemon, DaemonFailure, daemon_env, stop_all  # noqa: E402

WORKLOADS = ("validate-stream", "live-graph", "schema-evolution")
SETUPS = 3
RESTARTS = 3

#: End-to-end metrics every workload reports (``--trace 0``).
END_TO_END = {
    "setup_s": "s", "throughput_ops_s": "ops/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "daemon_cpu_ms_per_op": "ms", "daemon_peak_rss_mb": "MB",
}
LAYERS = ("rdf", "compile", "kernel", "assignment", "presburger", "store", "partition",
          "embedding", "search", "wal", "checkpoint", "recover")
#: Per-layer metrics every workload reports (``--trace 1``).
PER_LAYER = {
    "startup.import_s": "s", "startup.ready_s": "s", "serve.overhead_ms": "ms",
    "parse_memo.hit_ratio": "ratio", "result_cache.hit_ratio": "ratio",
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "search.candidates": "count", "unattributed_ms": "ms", "trace.overhead_pct": "%",
}
#: Layers a workload exists to load: a traced run that sees no call into
#: one of them means a wrapper was bypassed, and the run fails.
MUST_LOAD = {"validate-stream": ("rdf",), "live-graph": ("store", "wal"),
             "schema-evolution": ("search", "assignment")}


class BenchError(RuntimeError):
    pass


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
class Workload:
    """Inputs, set-up and answer checks of one workload."""

    name = ""
    durable = False
    #: Rounds after which the work counts and the daemon's peak RSS are read:
    #: a fixed amount of work, whatever the run's speed.  A run that has not
    #: reached it when its time is up goes on until it has.
    mark_rounds = 4
    #: Rounds per measured second to generate ahead (about twice today's
    #: rate); a faster program gets further rounds generated off the clock.
    rounds_per_s = 4.0
    #: Op types whose p50 and p90 enter ``latency_p50_ms``/``latency_p90_ms``
    #: (geometric mean over the types, so each type weighs the same however
    #: the mix is split, and no median falls in the gap between two types).
    latency_kinds: Tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.modes: Dict[str, int] = {}
        self.errors: List[str] = []

    def prepare(self) -> None:
        """Generate the first ``pool_rounds`` rounds, before any clock runs."""
        self.source = self.generate()
        self.rounds = list(itertools.islice(self.source, self.pool_rounds()))

    def generate(self):
        raise NotImplementedError

    def pool_rounds(self) -> int:
        return max(self.mark_rounds + 1, math.ceil(self.seconds * self.rounds_per_s))

    def load(self, client: Client) -> None:
        raise NotImplementedError

    def check(self, op, reply: Dict[str, Any]) -> Optional[str]:
        raise NotImplementedError

    def _check_typing(self, expect: Dict[str, Any], got: Dict[str, Any]) -> Optional[str]:
        if got.get("verdict") != expect["verdict"]:
            return f"verdict {got.get('verdict')} != oracle {expect['verdict']}"
        if sorted(got.get("untyped_nodes", ())) != expect["untyped"]:
            return (f"untyped nodes {sorted(got.get('untyped_nodes', ()))[:4]} != oracle "
                    f"{expect['untyped'][:4]}")
        return None


class ValidateStream(Workload):
    name = "validate-stream"
    mark_rounds = 16
    rounds_per_s = 6.0
    latency_kinds = ("validate",)

    def generate(self):
        import inputs

        self.schemas = inputs.bug_schemas(self.seed)
        return inputs.validate_stream(self.seed, self.schemas)

    def load(self, client):
        for key, text in self.schemas.items():
            client.call("load_schema", name=key, text=text)

    def check(self, op, reply):
        return self._check_typing(op.expect, reply)


class LiveGraph(Workload):
    name = "live-graph"
    durable = True
    mark_rounds = 6
    rounds_per_s = 2.0
    latency_kinds = ("update", "revalidate")

    def generate(self):
        import inputs

        self.inputs = inputs
        self.schemas = inputs.bug_schemas(self.seed)
        self.mirror = inputs.Mirror(self.seed, inputs.CopyOracle({"main": self.schemas["main"]}))
        self.documents = {name: self.mirror.document(name) for name in sorted(inputs.STORES)}
        self.snaps = []
        return inputs.live_graph(self.mirror, self.snaps)

    def load(self, client):
        client.call("load_schema", name="main", text=self.schemas["main"])
        for name, text in self.documents.items():
            client.call("update_graph", name=name, data={"text": text})
        for name in self.documents:
            for compressed in (False, True):
                client.call("revalidate", name=name, schema="main", compressed=compressed)
        client.call("checkpoint")

    def check(self, op, reply):
        if op.kind == "update":
            if reply.get("version") != op.expect["version"]:
                return f"update answered version {reply.get('version')} != {op.expect['version']}"
            return None
        if op.kind == "checkpoint":
            return None if reply.get("graphs") == op.expect["graphs"] else "checkpoint graphs"
        results = reply["results"] if op.kind == "revalidate-all" else [reply]
        expected = op.expect["results"] if op.kind == "revalidate-all" else [op.expect]
        if len(results) != len(expected):
            return "revalidate-all result count"
        for got, expect in zip(results, expected):
            self.modes[got.get("mode", "?")] = self.modes.get(got.get("mode", "?"), 0) + 1
            if got.get("graph") != expect["graph"] or got.get("version") != expect["version"]:
                return (f"revalidate {got.get('graph')}@{got.get('version')} != "
                        f"{expect['graph']}@{expect['version']}")
            problem = self._check_typing(expect, got)
            if problem:
                return f"{expect['graph']}: {problem}"
        return None


class SchemaEvolution(Workload):
    name = "schema-evolution"
    mark_rounds = 10
    rounds_per_s = 3.5
    latency_kinds = ("contains-det", "contains-shex0")

    def generate(self):
        import inputs

        self.inputs = inputs
        self._parsed: Dict[str, Any] = {}
        return inputs.schema_evolution(self.seed)

    def load(self, client):
        pass

    def _schema(self, text):
        if text not in self._parsed:
            self._parsed[text] = oracle.parse_schema(text)
        return self._parsed[text]

    def check(self, op, reply):
        expect = op.expect
        verdict = reply.get("verdict")
        self.modes[verdict] = self.modes.get(verdict, 0) + 1
        if verdict not in expect["verdicts"]:
            return f"{op.kind} answered {verdict}, allowed {expect['verdicts']}"
        both_det = reply.get("left_class") == reply.get("right_class") == "DetShEx0-"
        if both_det != (expect["class"] == "det"):
            return f"classes {reply.get('left_class')}/{reply.get('right_class')} for {expect['class']}"
        if verdict == "not-contained":
            lines = reply.get("counterexample")
            if lines is None and expect["class"] == "det":
                # Exact by Corollary 4.4 even when the characterizing graph
                # yields no certificate; counted, nothing to verify.
                self.modes["det-without-certificate"] = (
                    self.modes.get("det-without-certificate", 0) + 1)
                return None
            if not lines:
                return f"not-contained with counter-example {lines!r}"
            edges = self.inputs.counterexample_edges(lines)
            if not oracle.satisfies(edges, self._schema(expect["left"])):
                return "counter-example not in L(left)"
            if oracle.satisfies(edges, self._schema(expect["right"])):
                return "counter-example in L(right)"
        return None


WORKLOAD_CLASSES = {cls.name: cls for cls in (ValidateStream, LiveGraph, SchemaEvolution)}


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #
class Run:
    def __init__(self, workload: Workload, workdir: str):
        self.wl = workload
        self.workdir = workdir
        self.daemons: List[Daemon] = []
        self.counter = 0

    def spawn(self, data_dir: Optional[str] = None, trace_out: Optional[str] = None) -> Daemon:
        self.counter += 1
        socket_path = os.path.join(self.workdir, f"d{self.counter}.sock")
        log = os.path.join(self.workdir, "daemon.log")
        daemon = Daemon(socket_path, log, data_dir=data_dir, trace_out=trace_out)
        self.daemons.append(daemon)
        return daemon

    def setup(self, trace_out: Optional[str] = None) -> Tuple[Daemon, Client, float, float]:
        """Spawn a daemon and load the workload: (daemon, client, setup_s, ready_s)."""
        data_dir = (os.path.join(self.workdir, f"data{self.counter + 1}")
                    if self.wl.durable else None)
        daemon = self.spawn(data_dir, trace_out)
        client = daemon.connect()
        client.call("ping")
        ready = time.perf_counter() - daemon.spawned_at
        self.wl.load(client)
        return daemon, client, time.perf_counter() - daemon.spawned_at, ready

    def stream(self, client: Client, seconds: float, on_mark) -> Tuple[list, float, int]:
        """Whole rounds until ``seconds`` of round time have passed."""
        records = []
        elapsed = 0.0
        rounds = 0
        pool = self.wl.rounds
        while elapsed < seconds or rounds < self.wl.mark_rounds:
            if rounds == len(pool):
                pool.append(next(self.wl.source))  # off the clock
            begin = time.perf_counter()
            for op in pool[rounds]:
                sent = time.perf_counter()
                reply = client.send_raw(op.line)
                records.append((op, sent, time.perf_counter(), reply, rounds))
            elapsed += time.perf_counter() - begin
            rounds += 1
            if rounds == self.wl.mark_rounds:
                on_mark(len(records))
        return records, elapsed, rounds

    def check_records(self, records) -> Tuple[int, Dict[str, List[float]], Dict[str, List[float]]]:
        """Check every reply off the clock: (failed, latencies, overheads) by op type."""
        failed = 0
        latency: Dict[str, List[float]] = {}
        overhead: Dict[str, List[float]] = {}
        for op, sent, received, raw, _ in records:
            reply = json.loads(raw)
            latency.setdefault(op.kind, []).append((received - sent) * 1000.0)
            if not reply.get("ok"):
                failed += 1
                self.wl.errors.append(f"{op.kind} failed: {reply.get('error')}")
                continue
            result = reply["result"]
            if isinstance(result.get("seconds"), (int, float)):
                overhead.setdefault(op.kind, []).append(
                    (received - sent - result["seconds"]) * 1000.0)
            problem = self.wl.check(op, result)
            if problem:
                self.wl.errors.append(f"{op.kind}: {problem}")
        return failed, latency, overhead

    def work_counts(self, records, mark_at: int, status: Dict, persist: Optional[Dict]) -> Dict:
        ops: Dict[str, int] = {}
        modes: Dict[str, int] = {}
        for op, _, _, raw, _ in records[:mark_at]:
            ops[op.kind] = ops.get(op.kind, 0) + 1
            if not op.kind.startswith("revalidate"):
                continue
            result = json.loads(raw).get("result") or {}
            for entry in result.get("results", [result]):
                if "mode" in entry:
                    modes[entry["mode"]] = modes.get(entry["mode"], 0) + 1
        counts = {"rounds": self.wl.mark_rounds, "ops": ops, "revalidate_modes": modes}
        for cache in ("validation_cache", "containment_cache", "parsed_cache"):
            counts[cache] = {key: status[cache][key] for key in ("hits", "misses")}
        if persist is not None:
            counts["wal_bytes"] = persist["wal_bytes"]
            counts["wal_appends"] = persist["wal_appends"]
        return counts

    def stream_phase(self, client: Client, daemon: Daemon, seconds: float,
                     mark: Optional[str] = None) -> Dict[str, Any]:
        """Run the measured stream; everything the metrics need, off the clock."""
        marked: Dict[str, Any] = {}

        def on_mark(count):
            if mark:
                client.call("ping", mark=mark)
            marked["at"] = count
            marked["rss"] = daemon.peak_rss_mb()
            marked["status"] = client.call("status")
            if self.wl.durable:
                marked["persist"] = client.call("metrics", prometheus=False)["persist"]

        status0 = client.call("status")
        persist0 = client.call("metrics", prometheus=False)["persist"] if self.wl.durable else None
        if mark:
            client.call("ping", mark="stream-start")
        cpu0 = daemon.cpu_seconds()
        records, elapsed, rounds = self.stream(client, seconds, on_mark)
        cpu = daemon.cpu_seconds() - cpu0
        if mark:
            client.call("ping", mark="stream-end")
        status1 = client.call("status")
        persist1 = client.call("metrics", prometheus=False)["persist"] if self.wl.durable else None
        counts = self.work_counts(records, marked["at"], marked["status"], marked.get("persist"))
        return {"records": records, "elapsed": elapsed, "rounds": rounds, "cpu": cpu,
                "rss": marked["rss"], "status0": status0, "status1": status1, "persist0": persist0,
                "persist1": persist1, "counts": counts}

    # -- live-graph crash/restart ---------------------------------------- #
    def restarts(self, daemon: Daemon, client: Client, rounds_done: int) -> Tuple[Daemon, Client, List[float]]:
        """SIGKILL with a WAL tail past the last checkpoint, restart from the
        data directory, time spawn -> first revalidate answered, and check the
        recovered stores against the mirror."""
        wl = self.wl
        mirror = wl.mirror
        mirror.restore(wl.snaps[rounds_done])
        times = []
        for attempt in range(RESTARTS):
            for op in wl.inputs.restart_tail(mirror, attempt):
                problem = wl.check(op, json.loads(client.send_raw(op.line)).get("result", {}))
                if problem:
                    wl.errors.append(f"restart tail: {problem}")
            store = "s512"
            data_dir = daemon.data_dir
            client.close()
            daemon.kill()
            daemon = self.spawn(data_dir)
            client = daemon.connect()
            reply = client.call("revalidate", name=store, schema="main", compressed=False)
            times.append(time.perf_counter() - daemon.spawned_at)
            expect = mirror.expected(store)
            if reply.get("version") != expect["version"]:
                wl.errors.append(f"restart {attempt}: {store} recovered version "
                                 f"{reply.get('version')} != {expect['version']}")
            problem = wl._check_typing(expect, reply)
            if problem:
                wl.errors.append(f"restart {attempt}: {problem}")
            graphs = client.call("status")["graphs"]
            for name, version in mirror.version.items():
                if graphs.get(name, {}).get("version") != version:
                    wl.errors.append(f"restart {attempt}: {name} recovered "
                                     f"v{graphs.get(name, {}).get('version')} != v{version}")
        return daemon, client, times


def dir_mb(path: str) -> float:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total / (1024.0 * 1024.0)


def op_summary(latency: Dict[str, List[float]], overhead: Dict[str, List[float]]) -> Dict:
    out = {}
    for kind, values in sorted(latency.items()):
        entry = {"n": len(values), "p50_ms": statistics.median(values)}
        if len(values) >= 100:  # at least ten samples beyond the p90
            entry["p90_ms"] = percentile(values, 0.9)
        if kind in overhead:
            entry["serve_overhead_ms"] = statistics.median(overhead[kind])
        out[kind] = entry
    return out


def round_quantile(records, kind: str, q: float) -> float:
    """Median over rounds of each round's ``q``-quantile latency of ``kind``.

    Every round sends the same mix, so a round's quantile is taken at the
    same place in the mix each time; pooled over a whole run, a quantile
    that falls where one population of requests (say, full retypes of the
    largest store) gives way to the next jumps between them from run to run.
    """
    by_round: Dict[int, List[float]] = {}
    for op, sent, received, _, index in records:
        if op.kind == kind:
            by_round.setdefault(index, []).append((received - sent) * 1000.0)
    return statistics.median(percentile(values, q) for values in by_round.values())


def run_untraced(wl: Workload, run: Run) -> Tuple[Dict, Dict, int, int]:
    setups = []
    daemon = client = None
    for _ in range(SETUPS):
        if daemon is not None:
            client.close()
            daemon.kill()
        daemon, client, setup_s, ready_s = run.setup()
        setups.append(setup_s)
    phase = run.stream_phase(client, daemon, wl.seconds)
    failed, latency, overhead = run.check_records(phase["records"])
    records = phase["records"]
    ops = len(records)

    def geomean(q: float) -> float:
        values = [round_quantile(records, kind, q) for kind in wl.latency_kinds]
        return math.exp(sum(math.log(value) for value in values) / len(values))

    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": ops / phase["elapsed"],
        "latency_p50_ms": geomean(0.5),
        "latency_p90_ms": geomean(0.9),
        "daemon_cpu_ms_per_op": phase["cpu"] * 1000.0 / ops,
        "daemon_peak_rss_mb": phase["rss"],
    }
    report: Dict[str, Any] = {
        "setup_s_each": setups, "rounds": phase["rounds"], "ops": ops,
        "stream_s": phase["elapsed"], "by_op": op_summary(latency, overhead),
        "work_counts": phase["counts"], "modes": dict(sorted(wl.modes.items())),
    }
    if wl.durable:
        updates = len(latency.get("update", ()))
        wal = phase["persist1"]["wal_bytes"] - phase["persist0"]["wal_bytes"]
        daemon, client, restart_times = run.restarts(daemon, client, phase["rounds"])
        client.call("checkpoint")
        report["live"] = {
            "restart_first_answer_s": statistics.median(restart_times),
            "restart_first_answer_s_each": restart_times,
            "wal_bytes_per_update": wal / max(updates, 1),
            "data_dir_mb": dir_mb(daemon.data_dir),
        }
    daemon.shutdown(client)
    return metrics, report, ops, failed


def startup_probe(n: int = 3) -> Tuple[float, List[Tuple[str, float]]]:
    """Median ``import repro`` time over fresh interpreters, and the costliest
    third-party imports made by ``repro`` modules (cumulative seconds, from
    ``-X importtime``)."""
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    times = []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", code], env=daemon_env(), check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip()))
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import repro"],
                         env=daemon_env(), check=True, capture_output=True, text=True,
                         timeout=120)
    # Children are printed before their parent, one indent level deeper:
    # a line's importer is the next line that is less indented.
    entries = []
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            depth = len(name) - len(name.lstrip())
            entries.append((depth, name.strip(), int(cumulative) / 1e6))
    costliest = []
    for index, (depth, name, seconds) in enumerate(entries):
        if name.startswith("repro"):
            continue
        parent = next((e[1] for e in entries[index + 1:] if e[0] < depth), "")
        if parent.startswith("repro"):
            costliest.append((f"{name} via {parent}", round(seconds, 4)))
    costliest.sort(key=lambda item: -item[1])
    costliest = costliest[:5]
    return statistics.median(times), costliest


def layer_delta(start: Dict, end: Dict) -> Dict[str, Dict[str, float]]:
    return {layer: {"calls": end["calls"][layer] - start["calls"][layer],
                    "self_s": end["self_s"][layer] - start["self_s"][layer]}
            for layer in LAYERS}


def unattributed(records, frames) -> float:
    """Per-op median of client latency minus the outermost layer frames that
    ran inside the op's request window (one request is in flight at a time)."""
    frames = sorted(frames)
    values = []
    index = 0
    for _, sent, received, _, _ in records:
        while index < len(frames) and frames[index][0] < sent:
            index += 1
        covered = 0.0
        probe = index
        while probe < len(frames) and frames[probe][0] < received:
            covered += min(frames[probe][1], received) - frames[probe][0]
            probe += 1
        values.append((received - sent - covered) * 1000.0)
    return statistics.median(values)


def run_traced(wl: Workload, run: Run) -> Tuple[Dict, Dict, int, int]:
    import_s, costliest = startup_probe()
    half = wl.seconds / 2.0
    # Untraced half: overheads, cache ratios and the reference throughput.
    daemon, client, _, ready_s = run.setup()
    plain = run.stream_phase(client, daemon, half)
    daemon.shutdown(client)
    # Traced half, same inputs from the first round.
    trace_out = os.path.join(run.workdir, "trace.json")
    daemon, client, _, _ = run.setup(trace_out=trace_out)
    traced = run.stream_phase(client, daemon, half, mark="work-mark")
    data_dir = daemon.data_dir
    daemon.shutdown(client)
    with open(trace_out) as handle:
        trace = json.load(handle)
    if wl.durable:
        # Recovery runs at start-up: trace one warm restart on the data dir.
        second_out = os.path.join(run.workdir, "trace2.json")
        daemon = run.spawn(data_dir, trace_out=second_out)
        client = daemon.connect()
        client.call("revalidate", name="s512", schema="main", compressed=False)
        daemon.shutdown(client)
        with open(second_out) as handle:
            final = json.load(handle)["final"]
        recover = {"calls": final["calls"]["recover"], "self_s": final["self_s"]["recover"]}
    failed, _, overhead = run.check_records(plain["records"])
    failed += run.check_records(traced["records"])[0]
    overheads = [value for values in overhead.values() for value in values]
    by_op = {kind: statistics.median(values) for kind, values in overhead.items()}
    marks = trace["marks"]
    layers = layer_delta(marks["stream-start"], marks["stream-end"])
    if wl.durable:
        layers["recover"] = recover
    start, end = marks["stream-start"]["t"], marks["stream-end"]["t"]
    frames = [frame for frame in trace["frames"] if start <= frame[0] <= end]

    def ratio(stats0, stats1, names):
        hits = sum(stats1[n]["hits"] - stats0[n]["hits"] for n in names)
        misses = sum(stats1[n]["misses"] - stats0[n]["misses"] for n in names)
        return hits / (hits + misses) if hits + misses else 0.0

    s0, s1 = plain["status0"], plain["status1"]
    plain_tput = len(plain["records"]) / plain["elapsed"]
    traced_tput = len(traced["records"]) / traced["elapsed"]
    metrics = {
        "startup.import_s": import_s,
        "startup.ready_s": ready_s,
        "serve.overhead_ms": statistics.median(overheads) if overheads else 0.0,
        "parse_memo.hit_ratio": ratio(s0, s1, ["parsed_cache"]),
        "result_cache.hit_ratio": ratio(s0, s1, ["validation_cache", "containment_cache"]),
        "search.candidates": (marks["stream-end"]["candidates"]
                              - marks["stream-start"]["candidates"]),
        "unattributed_ms": unattributed(traced["records"], frames),
        "trace.overhead_pct": (plain_tput / traced_tput - 1.0) * 100.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
    counts = dict(traced["counts"])
    counts["search_candidates"] = (marks["work-mark"]["candidates"]
                                   - marks["stream-start"]["candidates"])
    report = {
        "costliest_imports_s": costliest,
        "serve_overhead_ms_by_op": by_op,
        "throughput_untraced_ops_s": plain_tput, "throughput_traced_ops_s": traced_tput,
        "layers_in_stream": layers, "work_counts": counts,
        "modes": dict(sorted(wl.modes.items())),
    }
    missing = [layer for layer in MUST_LOAD[wl.name] if layers[layer]["calls"] == 0]
    if missing:
        raise BenchError(f"traced {wl.name} recorded zero calls into {missing}: a wrapper "
                         "was bypassed or the workload no longer reaches the layer")
    ops = len(plain["records"]) + len(traced["records"])
    return metrics, report, ops, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError("run from the root of a checkout: src/repro is missing")
    sys.path.insert(0, os.path.join(root, "src"))
    oracle.self_test()
    workdir = os.path.join(".e2ebench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOAD_CLASSES[name](seed, seconds, workdir)
    run = Run(wl, workdir)
    try:
        wl.prepare()
        values, report, attempted, failed = (run_traced if trace else run_untraced)(wl, run)
    finally:
        stop_all(run.daemons)
        shutil.rmtree(workdir, ignore_errors=True)
    table = PER_LAYER if trace else END_TO_END
    if set(values) != set(table):
        raise BenchError(f"metrics {sorted(set(values) ^ set(table))} do not match the table")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table.items()}
    report["errors"] = wl.errors[:20]
    print(json.dumps({"workload": name, "seed": seed, "trace": int(trace),
                      "pythonhashseed": PYTHONHASHSEED, "report": report}, sort_keys=True))
    return {"correct": not wl.errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# --------------------------------------------------------------------------- #
# Several runs: all workloads, steadiness
# --------------------------------------------------------------------------- #
def child_run(workload: str, seed: int, seconds: float, trace: int) -> Tuple[Dict, Dict]:
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace",
                          str(trace)], capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise BenchError(f"{workload} run failed ({out.returncode}): {out.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def steadiness(workload: str, seed: int, seconds: float, repeat: int, vary: bool) -> int:
    """Run one workload ``repeat`` times (seeds seed, seed+1, ... with
    ``vary``) and print each end-to-end metric's median and IQR/median.
    With one seed, the work counts of all runs must agree exactly."""
    results = [child_run(workload, seed + (i if vary else 0), seconds, 0)
               for i in range(repeat)]
    for report, result in results:
        detail = report["report"]
        print(f"  seed {report['seed']}: " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in END_TO_END)
            + " | " + " ".join(f"{kind}:{entry['n']}@{entry['p50_ms']:.3g}ms"
                               for kind, entry in detail["by_op"].items())
            + f" | modes {detail['modes']}"
            + (f" | ERRORS {detail['errors'][:3]}" if detail["errors"] else ""))
    counts = [report["report"]["work_counts"] for report, _ in results]
    status = 0
    if not vary and any(count != counts[0] for count in counts):
        print(f"work counts differ between runs of seed {seed}:", file=sys.stderr)
        for count in counts:
            print("  " + json.dumps(count, sort_keys=True), file=sys.stderr)
        status = 1
    if not all(result["correct"] and result["failed"] == 0 for _, result in results):
        status = 1
    seeds = f"seeds {seed}..{seed + repeat - 1}" if vary else f"seed {seed}"
    verdict = "checks passed" if status == 0 else "CHECKS FAILED or work counts differ"
    print(f"{workload}: {repeat} runs, {seeds}, {seconds}s each; {verdict}")
    for name, unit in END_TO_END.items():
        values = [result["metrics"][name]["value"] for _, result in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:24s} median {statistics.median(values):12.4f} {unit:6s} "
              f"IQR/median {(q3 - q1) / statistics.median(values):.4f}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run the workload this many times")
    parser.add_argument("--vary-seeds", action="store_true",
                        help="with --repeat: use seeds seed, seed+1, ... instead of one seed")
    args = parser.parse_args(argv)
    if args.repeat:
        if args.workload == "all" or args.repeat < 2:
            parser.error("--repeat needs one workload and at least 2 runs")
        return steadiness(args.workload, args.seed, args.seconds, args.repeat, args.vary_seeds)
    if args.workload == "all":
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            report, result = child_run(name, args.seed, args.seconds, args.trace)
            print(json.dumps(report, sort_keys=True))
            print(json.dumps(result, sort_keys=True))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric_name, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric_name}"] = value
        print(json.dumps(combined, sort_keys=True))
        return 0 if combined["correct"] and not combined["failed"] else 1
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, DaemonFailure, OSError) as exc:
        print(f"e2ebench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
