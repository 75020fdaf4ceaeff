"""Spans recorded from the benchmark's side of each layer boundary.

:func:`install` wraps the package's public entry points under the names
their callers look up.  Each call records a span (name, start, end, parent,
op id); spans stay in memory until the run ends.  Nothing here changes what
the wrapped functions compute, and ``repro.obs`` tracing stays off.

An entry point that no longer exists is reported as *missing* with the
reason, and the run goes on without that layer.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = dict


class Tracer:
    """In-memory span store with op-id attribution across threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: Dict[str, str] = {}
        #: Outermost span of each op on the event loop (``submit``), the
        #: parent of that op's spans in worker threads.
        self.roots: Dict[object, int] = {}
        #: Argument-derived keys (request seed, session id) -> op id.
        self.op_keys: Dict[Tuple[str, object], object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- op attribution ---------------------------------------------------

    def set_current_op(self, op) -> None:
        """The op a direct (same-thread) caller is running now."""
        self._local.op = op

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op, parent: Optional[int]) -> int:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "op": op, "attrs": {}}
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, func: Callable, key: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """A synchronous wrapper recording one span per call.

        ``key(args, kwargs)`` names the op when no enclosing span does;
        ``after(attrs, args, kwargs, result)`` annotates the finished span.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            op = tracer.spans[parent]["op"] if parent is not None else None
            if op is None and key is not None:
                op = tracer.op_keys.get(key(args, kwargs))
            if op is None:
                op = getattr(tracer._local, "op", None)
            if parent is None and op is not None:
                parent = tracer.roots.get(op)
            index = tracer._open(name, op, parent)
            stack.append(index)
            span = tracer.spans[index]
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span["attrs"]["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span["attrs"], args, kwargs, result)
            return result

        return wrapper

    def wrap_async(self, name: str, func: Callable, key: Callable) -> Callable:
        """An ``async`` wrapper whose span becomes the op's root span."""
        tracer = self

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            op = key(args, kwargs)
            index = tracer._open(name, op, None)
            tracer.roots[op] = index
            try:
                return await func(*args, **kwargs)
            finally:
                tracer.spans[index]["end"] = time.perf_counter()

        return wrapper


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _patch(tracer: Tracer, layer: str, module: str, qualname: str, make: Callable) -> bool:
    """Replace ``module.qualname`` by ``make(original)``; record why not."""
    try:
        owner = importlib.import_module(module)
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        raw = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
    except (ImportError, AttributeError, KeyError) as exc:
        tracer.missing.setdefault(layer, f"{module}.{qualname} not found ({type(exc).__name__}: {exc})")
        return False
    if isinstance(raw, classmethod):
        setattr(owner, parts[-1], classmethod(make(raw.__func__)))
    else:
        setattr(owner, parts[-1], make(raw))
    return True


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def install(tracer: Tracer) -> None:
    """Wrap every probed entry point; unreachable ones land in ``tracer.missing``."""

    def plain(name, key=None, after=None):
        return lambda fn: tracer.wrap(name, fn, key=key, after=after)

    def on_source(attrs, args, kwargs, result):
        from perfbench.workloads import messages

        attrs["messages"] = messages(_arg(args, kwargs, 1, "model_source", ""),
                                     _arg(args, kwargs, 2, "guide_source", ""))

    seen_entries: Dict[int, object] = {}

    def on_kernel(attrs, args, kwargs, result):
        # A cached entry comes back as the identical tuple object; holding a
        # reference keeps its id from being reused.
        attrs["miss"] = id(result) not in seen_entries
        seen_entries[id(result)] = result
        kernel = result[0] if isinstance(result, tuple) and result else None
        source = getattr(kernel, "source", None)
        if attrs["miss"] and isinstance(source, str):
            attrs["lines"] = sum(1 for line in source.splitlines() if line.strip())

    def wrap_runner(make_runner):
        @functools.wraps(make_runner)
        def wrapper(*args, **kwargs):
            runner = make_runner(*args, **kwargs)
            requested = kwargs.get("backend", "interp")

            def after(attrs, a, k, result):
                attrs["particles"] = int(_arg(a, k, 0, "num_particles", 0))
                attrs["requested"] = requested
                attrs["backend"] = getattr(result, "backend", requested)

            try:
                runner.run = tracer.wrap("runner.run", runner.run, after=after)
            except AttributeError as exc:
                tracer.missing.setdefault("engine.runtime", f"runner has no run ({exc})")
            return runner

        return wrapper

    def on_smc(attrs, args, kwargs, result):
        attrs["resamples"] = len(getattr(result, "resample_steps", ()) or ())

    def on_svi(attrs, args, kwargs, result):
        attrs["steps"] = int(_arg(args, kwargs, 6, "num_steps", 0) or 0)

    def on_tasks(attrs, args, kwargs, result):
        tasks = _arg(args, kwargs, 0, "tasks", ()) or ()
        attrs["particles"] = sum(int(getattr(t, "count", 0)) for t in tasks)
        attrs["worker_max_s"] = max((float(getattr(r, "wall_s", 0.0)) for r in result), default=0.0)
        attrs["payload_bytes"] = sum(int(getattr(r, "payload_bytes", 0)) for r in result)

    def seed_key(args, kwargs):
        request = _arg(args, kwargs, 2, "request")
        return ("seed", getattr(request, "seed", None))

    def session_key(args, kwargs):
        return ("session", _arg(args, kwargs, 2, "session_id"))

    def payload_key(args, kwargs):
        payload = _arg(args, kwargs, 1, "payload") or {}
        pid = payload.get("id") if isinstance(payload, dict) else None
        return tracer.op_keys.get(("payload", pid), pid)

    probes = [
        ("core.parser", "repro.engine.session", "parse_program", plain("parse_program")),
        ("core.typecheck", "repro.engine.session", "check_model_guide_pair",
         plain("check_model_guide_pair")),
        ("engine.session", "repro.engine.session", "ProgramSession.from_sources",
         plain("from_sources", after=on_source)),
        ("compiler", "repro.engine.backend", "fused_kernel_for",
         plain("fused_kernel_for", after=on_kernel)),
        ("engine.runtime", "repro.engine.backend", "make_particle_runner", wrap_runner),
        ("engine.smc", "repro.engine.smc", "smc", plain("smc", after=on_smc)),
        ("engine.svi", "repro.engine.svi", "fit_svi", plain("fit_svi", after=on_svi)),
        ("engine.shard", "repro.engine.shard", "execute_tasks",
         plain("execute_tasks", after=on_tasks)),
        ("engine.shard", "repro.engine.shard", "ShardWave.merge", plain("merge")),
        ("engine.streaming", "repro.engine.streaming", "SessionManager.push",
         plain("push", key=session_key)),
        ("engine.server", "repro.engine.server", "InferenceService.submit",
         lambda fn: tracer.wrap_async("submit", fn, key=payload_key)),
    ]
    for layer, module, qualname, make in probes:
        _patch(tracer, layer, module, qualname, make)

    # run_engine is looked up in each caller's own namespace.
    callers = [m for m in ("repro.engine.session", "repro.engine.server", "repro.engine.streaming")
               if _patch(tracer, "engine.api", m, "run_engine", plain("run_engine", key=seed_key))]
    if callers:
        tracer.missing.pop("engine.api", None)
    try:
        from repro.engine.api import available_engines, get_engine

        for name in available_engines():
            engine = get_engine(name)
            engine.run = tracer.wrap("engine.run", engine.run)
    except (ImportError, AttributeError) as exc:
        tracer.missing.setdefault("engine.api", f"engine registry unavailable ({exc})")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clipped(intervals, lo: float, hi: float) -> List[Tuple[float, float]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)]


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    """Parent index -> child indices."""
    out: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            out.setdefault(span["parent"], []).append(i)
    return out


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    kids = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        covered = union_length(_clipped(
            [(spans[c]["start"], spans[c]["end"]) for c in kids.get(i, ())],
            span["start"], span["end"]))
        out.append(span["end"] - span["start"] - covered)
    return out


def unattributed_share(spans: Sequence[Span], ops: Sequence[dict]) -> float:
    """Share of op wall time covered by none of that op's spans."""
    by_op: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["op"] is not None:
            by_op.setdefault(span["op"], []).append((span["start"], span["end"]))
    total = uncovered = 0.0
    for op in ops:
        lo, hi = op["start"], op["end"]
        covered = union_length(_clipped(by_op.get(op["id"], []), lo, hi))
        total += hi - lo
        uncovered += hi - lo - covered
    return uncovered / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Journal-length windows behind ``engine.streaming.push_ms_t<N>``.
PUSH_BUCKETS = {8: (6, 10), 32: (24, 40), 64: (48, 64), 128: (96, 128)}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0 for no values."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _dur(span: Span) -> float:
    return span["end"] - span["start"]


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: Sequence[Span], ops: Sequence[dict], extra: dict,
                  tail_percentile: float) -> Dict[str, float]:
    """Every per-layer metric from one traced run (0 where a layer did no work)."""
    spans = [s for s in spans if s["end"] is not None]
    n = max(1, len(ops))
    kids = children_of(spans)
    selfs = self_times(spans)
    named: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        named.setdefault(span["name"], []).append(i)
    op_by_id = {op["id"]: op for op in ops}

    def total(name):
        return sum(_dur(spans[i]) for i in named.get(name, ()))

    def child_names(i):
        return [spans[c]["name"] for c in kids.get(i, ())]

    m: Dict[str, float] = {}
    m["core.parser.ms_per_op"] = total("parse_program") * 1e3 / n
    m["core.parser.calls_per_op"] = len(named.get("parse_program", ())) / n
    m["core.typecheck.ms_per_op"] = total("check_model_guide_pair") * 1e3 / n
    tc_s = tc_msgs = 0.0
    for i in named.get("from_sources", ()):
        checks = [c for c in kids.get(i, ()) if spans[c]["name"] == "check_model_guide_pair"]
        if checks and spans[i]["attrs"].get("messages"):
            tc_s += sum(_dur(spans[c]) for c in checks)
            tc_msgs += spans[i]["attrs"]["messages"]
    m["core.typecheck.us_per_message"] = tc_s * 1e6 / tc_msgs if tc_msgs else 0.0
    if extra.get("pairs_certify"):
        # Every pair of the run is known to certify: each op whose typecheck
        # raised got a wrong verdict.
        m["core.typecheck.wrong_verdicts"] = float(len({
            spans[i]["op"] for i in named.get("check_model_guide_pair", ())
            if spans[i]["attrs"].get("error")}))
    else:
        m["core.typecheck.wrong_verdicts"] = float(extra.get("wrong_verdicts", 0))

    lookups = named.get("from_sources", [])
    hits = sum(1 for i in lookups if "parse_program" not in child_names(i))
    m["engine.session.hit_ratio"] = hits / len(lookups) if lookups else 0.0
    m["engine.session.lookups_per_op"] = len(lookups) / n

    kernels = [spans[i] for i in named.get("fused_kernel_for", ())]
    misses = [s for s in kernels if s["attrs"].get("miss")]
    m["compiler.compile_ms_per_kernel"] = _mean([_dur(s) * 1e3 for s in misses])
    m["compiler.kernel_hit_ratio"] = (len(kernels) - len(misses)) / len(kernels) if kernels else 0.0
    m["compiler.kernel_lines"] = _mean([s["attrs"]["lines"] for s in misses if "lines" in s["attrs"]])

    runs = [i for i in named.get("runner.run", ())
            if spans[i]["parent"] is None or spans[spans[i]["parent"]]["name"] != "runner.run"]
    compiled_req = [i for i in runs if spans[i]["attrs"].get("requested") == "compiled"]
    fallbacks = [i for i in compiled_req if spans[i]["attrs"].get("backend") != "compiled"]
    m["compiler.fallback_share"] = len(fallbacks) / len(compiled_req) if compiled_req else 0.0
    for backend in ("interp", "compiled"):
        secs = work = 0.0
        for i in runs:
            attrs, op = spans[i]["attrs"], op_by_id.get(spans[i]["op"])
            if attrs.get("backend") == backend and op is not None:
                secs += _dur(spans[i])
                work += attrs.get("particles", 0) * op.get("sites", 0)
        m[f"engine.runtime.ns_per_particle_site.{backend}"] = secs * 1e9 / work if work else 0.0
    op_time = sum(op["end"] - op["start"] for op in ops)
    run_time = sum(_dur(spans[i]) for i in runs if spans[i]["op"] in op_by_id)
    m["engine.runtime.share_of_op"] = run_time / op_time if op_time else 0.0

    m["engine.smc.self_ms_per_op"] = sum(selfs[i] for i in named.get("smc", ())) * 1e3 / n
    m["engine.smc.resamples_per_op"] = sum(
        spans[i]["attrs"].get("resamples", 0) for i in named.get("smc", ())) / n
    steps = sum(spans[i]["attrs"].get("steps", 0) for i in named.get("fit_svi", ()))
    m["engine.svi.ms_per_step"] = total("fit_svi") * 1e3 / steps if steps else 0.0

    execs = [spans[i] for i in named.get("execute_tasks", ())]
    m["engine.shard.exec_ms"] = _mean([_dur(s) * 1e3 for s in execs])
    m["engine.shard.worker_ms_max"] = _mean([s["attrs"].get("worker_max_s", 0.0) * 1e3 for s in execs])
    m["engine.shard.transport_ms"] = m["engine.shard.exec_ms"] - m["engine.shard.worker_ms_max"]
    m["engine.shard.merge_ms"] = _mean([_dur(spans[i]) * 1e3 for i in named.get("merge", ())])
    moved = sum(s["attrs"].get("particles", 0) for s in execs)
    m["engine.shard.bytes_per_particle"] = (
        sum(s["attrs"].get("payload_bytes", 0) for s in execs) / moved if moved else 0.0)

    telemetry = 0.0
    for i in named.get("run_engine", ()):
        inner = sum(_dur(spans[c]) for c in kids.get(i, ()) if spans[c]["name"] == "engine.run")
        telemetry += _dur(spans[i]) - inner
    m["engine.api.telemetry_ms_per_op"] = telemetry * 1e3 / n
    m["obs.series"] = float(extra.get("obs_series", 0))

    server = extra.get("server", [])
    queue = [r["queue_wait_s"] * 1e3 for r in server]
    m["engine.server.queue_wait_ms_p50"] = percentile(queue, 50)
    m["engine.server.queue_wait_ms_tail"] = percentile(queue, tail_percentile)
    m["engine.server.run_ms_p50"] = percentile([r["run_s"] * 1e3 for r in server], 50)
    m["engine.server.overhead_ms_p50"] = percentile(
        [(r["latency_s"] - r["queue_wait_s"] - r["run_s"]) * 1e3 for r in server], 50)
    m["engine.server.wire_ms_p50"] = percentile(
        [(r["client_s"] - r["latency_s"]) * 1e3 for r in server], 50)
    m["engine.server.wave_size_mean"] = float(extra.get("wave_size_mean", 0.0))
    m["engine.server.shed"] = float(extra.get("shed", 0))

    # The k-th push span of a session is its k-th push; push_t gives the
    # journal length each push reached.
    push_t = extra.get("push_t", {})
    seen: Dict[object, int] = {}
    pushes = []
    for i in named.get("push", ()):
        lengths = push_t.get(spans[i]["op"], [])
        k = seen[spans[i]["op"]] = seen.get(spans[i]["op"], -1) + 1
        if k < len(lengths):
            pushes.append((lengths[k], _dur(spans[i]) * 1e3, i))
    for label, (lo, hi) in PUSH_BUCKETS.items():
        m[f"engine.streaming.push_ms_t{label}"] = percentile(
            [ms for t, ms, _ in pushes if lo <= t <= hi], 50)
    good = [(t, ms) for t, ms, i in pushes if not spans[i]["attrs"].get("error")]
    m["engine.streaming.push_ms_per_step"] = _slope(good)
    m["engine.streaming.checkpoint_ms"] = _mean(
        [selfs[i] * 1e3 for _, _, i in pushes if not spans[i]["attrs"].get("error")])

    m["bench.loadgen.lag_ms_tail"] = percentile(
        [lag * 1e3 for lag in extra.get("lags", [])], tail_percentile)
    m["bench.unattributed_share"] = unattributed_share(spans, ops)
    return m


def _slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``y`` against ``x`` (0 with fewer than two xs)."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = _mean([x for x, _ in points])
    my = _mean([y for _, y in points])
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx
