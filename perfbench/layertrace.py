"""Per-layer tracing from outside the program.

:func:`install` replaces public functions of ``hoirefine`` with timing
wrappers, patched where they are looked up: ``pipeline``, ``agents`` and
``debate`` import most names directly, so e.g. ``propagate_scores`` is
patched as ``hoirefine.pipeline.propagate_scores``. Only the traced run
installs them. Each wrapped call records a span (name, start, end, parent)
in memory; spans opened on a worker thread with nothing open on that thread
take the main thread's innermost open span as parent, which attributes
debates run by the stage-2 pool to stage 2. Self time is a span's duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

import hoirefine.agents as agents
import hoirefine.config as config
import hoirefine.debate as debate
import hoirefine.embedloss as embedloss
import hoirefine.evaluation as evaluation
import hoirefine.ingest as ingest
import hoirefine.pipeline as pipeline
import hoirefine.prompt as prompt
import hoirefine.provider as provider

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("ingest.load_s", "s", "lower"),
    ("ingest.write_s", "s", "lower"),
    ("ingest.records", "count", "higher"),
    ("provider.requests", "count", "lower"),
    ("provider.cache_hits", "count", "higher"),
    ("provider.hit_ratio", "ratio", "higher"),
    ("provider.retries", "count", "lower"),
    ("provider.failed", "count", "lower"),
    ("provider.call_ms_p50", "ms", "lower"),
    ("provider.call_ms_p95", "ms", "lower"),
    ("provider.call_samples", "count", "lower"),
    ("provider.service_ms_p50", "ms", "lower"),
    ("provider.wait_s", "s", "lower"),
    ("provider.max_in_flight", "count", "higher"),
    ("provider.max_in_flight_stage1", "count", "higher"),
    ("provider.mean_in_flight", "count", "higher"),
    ("provider.floor_ratio", "ratio", "lower"),
    ("provider.cache_s", "s", "lower"),
    ("prompt.render_s", "s", "lower"),
    ("prompt.parse_s", "s", "lower"),
    ("prompt.parsed_ratio", "ratio", "higher"),
    ("agents.cs_s", "s", "lower"),
    ("agents.spatial_s", "s", "lower"),
    ("agents.temporal_s", "s", "lower"),
    ("agents.batches", "count", "lower"),
    ("agents.transitions", "count", "lower"),
    ("agents.propagate_s", "s", "lower"),
    ("debate.selected", "count", "lower"),
    ("debate.run_s", "s", "lower"),
    ("debate.judge_failed", "count", "lower"),
    ("debate.persist_s", "s", "lower"),
    ("pipeline.stage1_s", "s", "lower"),
    ("pipeline.stage2_s", "s", "lower"),
    ("pipeline.aggregate_s", "s", "lower"),
    ("pipeline.fuse_table_s", "s", "lower"),
    ("pipeline.refine_self_s", "s", "lower"),
    ("fusion.fuse_scores_calls", "count", "lower"),
    ("evaluation.recall_s", "s", "lower"),
    ("evaluation.frames", "count", "higher"),
    ("model.table_entries", "count", "lower"),
    ("embedloss.check_s", "s", "lower"),
    ("embedloss.loss_grad_calls", "count", "lower"),
    ("embedloss.loss_grad_ms", "ms", "lower"),
    ("traffic.debate_call_share", "ratio", "lower"),
    ("traffic.distinct_prompt_share", "ratio", "lower"),
    ("traffic.tracked_share", "ratio", "higher"),
    ("traffic.transitions_per_frame", "ratio", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_REQUEST = "provider.request"


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []
        self.transport = None
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.prompts: set = set()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            sid = len(self.spans)
            self.spans.append([sid, name, time.perf_counter(), None, parent])
        stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        end = time.perf_counter()
        self._stack().pop()
        span = self.spans[sid]
        span[3] = end
        return end - span[2]

    def patch(self, owner, attr: str, name: str, on_result=None):
        """Replace ``owner.attr`` by a wrapper that records a span called
        ``name`` and then hands (result, args) to ``on_result``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_result is not None:
                on_result(result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def count_calls(self, owner, attr: str, name: str):
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, fh, rep: int):
        """Write the spans as JSON lines tagged with ``rep``."""
        for sid, name, start, end, parent in self.spans:
            fh.write(json.dumps({"rep": rep, "id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")

    # -- derived per-repetition figures ------------------------------------

    def self_time(self, name: str) -> float:
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append(s)
        out = 0.0
        for s in self.spans:
            if s[1] != name:
                continue
            covered, cursor = 0.0, s[2]
            for c in sorted(children[s[0]], key=lambda c: c[2]):
                lo, hi = max(c[2], cursor), min(c[3], s[3])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out += (s[3] - s[2]) - covered
        return out

    def has_ancestor(self, span: list, name: str) -> bool:
        parent = span[4]
        while parent is not None:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries; :meth:`Tracer.uninstall`
    restores them."""
    local = threading.local()

    def inner_complete_s() -> float:
        return getattr(local, "complete_s", 0.0)

    # provider: Provider.complete is the billed call, cached_complete wraps it
    original_complete = provider.Provider.complete

    def complete(prov, req):
        transport = tracer.transport
        service_before = transport.thread_busy_s() if transport else 0.0
        sid = tracer.open("provider.complete")
        try:
            return original_complete(prov, req)
        except provider.ProviderError:
            with tracer._lock:
                tracer.counts["provider.failed"] += 1
            raise
        finally:
            spent = tracer.close(sid)
            local.complete_s = inner_complete_s() + spent
            service = (transport.thread_busy_s() - service_before) if transport else 0.0
            with tracer._lock:
                tracer.samples["provider.call_s"].append(spent)
                tracer.counts["provider.wait_us"] += round(1e6 * (spent - service))
                if not getattr(local, "in_cache", False):
                    tracer.counts[_REQUEST] += 1
                    tracer.prompts.add((prov.id, hash(req.prompt)))

    provider.Provider.complete = functools.wraps(original_complete)(complete)
    tracer._patches.append((provider.Provider, "complete", original_complete))

    def cached(original):
        @functools.wraps(original)
        def wrapper(prov, req, cache_dir):
            before = inner_complete_s()
            sid = tracer.open("provider.cached_complete")
            local.in_cache = True
            try:
                resp = original(prov, req, cache_dir)
            finally:
                local.in_cache = False
                spent = tracer.close(sid)
            inner = inner_complete_s() - before
            with tracer._lock:
                tracer.counts[_REQUEST] += 1
                tracer.counts["provider.cache_hits"] += resp.cached
                tracer.counts["provider.cache_us"] += round(1e6 * (spent - inner))
                tracer.prompts.add((prov.id, hash(req.prompt)))
            return resp
        return wrapper

    for module in (agents, debate):
        original = module.cached_complete
        module.cached_complete = cached(original)
        tracer._patches.append((module, "cached_complete", original))

    # prompt rendering and parsing, where agents and debate call them
    for owner, attr in ((agents, "render_common_sense"), (agents, "render_spatial"),
                        (agents, "render_temporal")):
        tracer.patch(owner, attr, "prompt.render",
                     lambda result, args: tracer.counts.update(["agents.batches"]))
    tracer.patch(prompt.PromptBundle, "render", "prompt.render")
    tracer.patch(debate, "render_debate_turn", "prompt.render")
    tracer.patch(pipeline, "render_debate_question", "prompt.render")

    def parsed_scores(result, args):
        with tracer._lock:
            tracer.counts["prompt.asked"] += args[1]
            tracer.counts["prompt.parsed"] += sum(v is not None for v in result)

    def parsed_binary(result, args):
        with tracer._lock:
            tracer.counts["prompt.asked"] += 1
            tracer.counts["prompt.parsed"] += result is not None

    tracer.patch(agents, "parse_score_output", "prompt.parse", parsed_scores)
    tracer.patch(debate, "parse_score_output", "prompt.parse", parsed_scores)
    tracer.patch(agents, "parse_binary_output", "prompt.parse", parsed_binary)

    # agents, as pipeline calls them
    tracer.patch(pipeline, "run_common_sense", "agents.run_common_sense")
    tracer.patch(pipeline, "run_spatial", "agents.run_spatial")

    def transitions(result, args):
        tracer.counts["agents.transitions"] = max(tracer.counts["agents.transitions"],
                                                  len(args[2]))

    tracer.patch(pipeline, "run_temporal", "agents.run_temporal", transitions)
    tracer.patch(pipeline, "propagate_scores", "agents.propagate_scores")

    # debate
    tracer.patch(pipeline, "select_debate_candidates", "debate.select",
                 lambda result, args: tracer.counts.update({"debate.selected": len(result)}))

    def judged(result, args):
        if result.judge_score is None:
            with tracer._lock:
                tracer.counts["debate.judge_failed"] += 1

    tracer.patch(pipeline, "run_debate", "debate.run_debate", judged)
    tracer.patch(pipeline, "persist_transcript", "debate.persist_transcript")

    # pipeline stages
    tracer.patch(pipeline, "refine", "pipeline.refine")

    def stage_one_done(result, args):
        tracer.counts["provider.max_in_flight_stage1"] = max(p.max_in_flight for p in args[2])

    tracer.patch(pipeline, "run_stage_one", "pipeline.run_stage_one", stage_one_done)
    tracer.patch(pipeline, "run_stage_two", "pipeline.run_stage_two")
    tracer.patch(pipeline, "aggregate_provider_tables", "pipeline.aggregate_provider_tables")
    tracer.patch(pipeline, "fuse_table", "pipeline.fuse_table")
    tracer.count_calls(pipeline, "fuse_scores", "fusion.fuse_scores_calls")

    # ingest, config, evaluation and embedloss, as the benchmark calls them
    tracer.patch(config, "load_config", "config.load_config")
    tracer.patch(ingest, "load_vocabulary", "ingest.load_vocabulary")
    tracer.patch(ingest, "load_predictions", "ingest.load_predictions")
    tracer.patch(ingest, "load_ground_truth", "ingest.load_ground_truth")
    tracer.patch(ingest, "write_predictions", "ingest.write_predictions")

    def recall_frames(result, args):
        tracer.counts["evaluation.frames"] += sum(1 for v in args[1].values() if v)

    tracer.patch(evaluation, "recall_at_k_dataset", "evaluation.recall_at_k_dataset",
                 recall_frames)
    tracer.patch(embedloss, "finite_diff_check", "embedloss.finite_diff_check")
    tracer.patch(embedloss, "loss_and_param_grads", "embedloss.loss_and_param_grads")


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer, ctx: dict) -> dict:
    """Per-layer figures of one traced repetition. ``ctx`` carries what the
    benchmark knows from outside: providers, transport, outcome, input
    shape and the traced job time. A figure of a layer the workload does not
    reach is 0."""
    t, c = tracer, tracer.counts
    sums: dict[str, float] = defaultdict(float)
    for s in t.spans:
        sums[s[1]] += s[3] - s[2]

    def total(*names: str) -> float:
        return sum(sums[n] for n in names)

    providers = ctx.get("providers", [])
    transport = ctx.get("transport")
    refine_s = total("pipeline.refine")
    service = transport.service_s if transport else []
    service_s = transport.busy_s if transport else 0.0
    requests = c[_REQUEST]
    calls = t.samples["provider.call_s"]
    concurrency = sum(p.spec.max_concurrency for p in providers)
    latency_floor = service_s / concurrency if concurrency else 0.0
    debate_requests = sum(
        1 for s in t.spans
        if (s[1] == "provider.cached_complete"
            or (s[1] == "provider.complete"
                and not (s[4] is not None and t.spans[s[4]][1] == "provider.cached_complete")))
        and t.has_ancestor(s, "debate.run_debate"))
    loss_grads = [s[3] - s[2] for s in t.spans if s[1] == "embedloss.loss_and_param_grads"]
    frames = ctx.get("frames", 0)
    return {
        "ingest.load_s": total("ingest.load_predictions", "ingest.load_ground_truth"),
        "ingest.write_s": total("ingest.write_predictions"),
        "ingest.records": ctx.get("records", 0),
        "provider.requests": requests,
        "provider.cache_hits": c["provider.cache_hits"],
        "provider.hit_ratio": c["provider.cache_hits"] / requests if requests else 0.0,
        "provider.retries": (transport.attempts - len(transport.attempts_by_prompt)
                             if transport else 0),
        "provider.failed": c["provider.failed"],
        "provider.call_ms_p50": 1e3 * _quantile(calls, 0.5),
        "provider.call_ms_p95": 1e3 * _quantile(calls, 0.95),
        "provider.call_samples": len(calls),
        "provider.service_ms_p50": 1e3 * _quantile(service, 0.5),
        "provider.wait_s": c["provider.wait_us"] / 1e6,
        "provider.max_in_flight": max((p.max_in_flight for p in providers), default=0),
        "provider.max_in_flight_stage1": c["provider.max_in_flight_stage1"],
        "provider.mean_in_flight": service_s / refine_s if refine_s else 0.0,
        "provider.floor_ratio": (refine_s / latency_floor
                                 if ctx.get("latency") and latency_floor else 0.0),
        "provider.cache_s": c["provider.cache_us"] / 1e6,
        "prompt.render_s": total("prompt.render"),
        "prompt.parse_s": total("prompt.parse"),
        "prompt.parsed_ratio": c["prompt.parsed"] / c["prompt.asked"] if c["prompt.asked"] else 0.0,
        "agents.cs_s": total("agents.run_common_sense"),
        "agents.spatial_s": total("agents.run_spatial"),
        "agents.temporal_s": total("agents.run_temporal"),
        "agents.batches": c["agents.batches"],
        "agents.transitions": c["agents.transitions"],
        "agents.propagate_s": total("agents.propagate_scores"),
        "debate.selected": c["debate.selected"],
        "debate.run_s": total("debate.run_debate"),
        "debate.judge_failed": c["debate.judge_failed"],
        "debate.persist_s": total("debate.persist_transcript"),
        "pipeline.stage1_s": total("pipeline.run_stage_one"),
        "pipeline.stage2_s": total("pipeline.run_stage_two"),
        "pipeline.aggregate_s": total("pipeline.aggregate_provider_tables"),
        "pipeline.fuse_table_s": total("pipeline.fuse_table"),
        "pipeline.refine_self_s": t.self_time("pipeline.refine"),
        "fusion.fuse_scores_calls": c["fusion.fuse_scores_calls"],
        "evaluation.recall_s": total("evaluation.recall_at_k_dataset"),
        "evaluation.frames": c["evaluation.frames"],
        "model.table_entries": ctx.get("table_entries", 0),
        "embedloss.check_s": total("embedloss.finite_diff_check"),
        "embedloss.loss_grad_calls": len(loss_grads),
        "embedloss.loss_grad_ms": 1e3 * _quantile(loss_grads, 0.5),
        "traffic.debate_call_share": debate_requests / requests if requests else 0.0,
        "traffic.distinct_prompt_share": len(t.prompts) / requests if requests else 0.0,
        "traffic.tracked_share": ctx.get("tracked_share", 0.0),
        "traffic.transitions_per_frame": c["agents.transitions"] / frames if frames else 0.0,
        "trace.job_s": ctx["job_s"],
    }
