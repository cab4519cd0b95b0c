"""Spans and counts at the package's layer boundaries, recorded from outside.

``install`` replaces each measured function at the module attribute
through which its callers reach it (``experiments.run_with_oracle`` is
what ``classify_all`` calls, ``trio.evaluate_costed`` what the trio
calls) with a wrapper that records a span: name, parent span, start and
end.  Generators get one span per item drawn.  Spans stay in memory;
``per_layer`` derives the per-layer metrics from them, and the caller
writes them out when the run ends.  A function the package stops
calling simply records nothing, so its counts read 0.
"""

from __future__ import annotations

import time
from collections import defaultdict

from haltlab import experiments, machine, oracle, proofs, trio

def _verdict_steps(outcome) -> int:
    if isinstance(outcome, oracle.LoopDetected):
        return outcome.first_index + outcome.period
    return outcome.steps


class Tracer:
    """Records spans as [name, parent index, start, end] and named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Span every call of ``owner.attr``.  ``before(args)`` runs ahead
        of the call; ``after(args, result, before_value)`` adds counts."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            ahead = before(args) if before is not None else None
            index = self._open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result, ahead)
            return result

        self._replace(owner, attr, traced)

    def wrap_classmethod(self, cls, attr: str, name: str) -> None:
        inner = cls.__dict__[attr].__func__

        def traced(klass, *args, **kwargs):
            index = self._open(name)
            try:
                return inner(klass, *args, **kwargs)
            finally:
                self._close(index)

        self._replace(cls, attr, classmethod(traced))

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """One span per item drawn, so time between draws is not counted."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            items = inner(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        self._replace(owner, attr, traced)

    def install(self) -> None:
        counts = self.counts

        def decided(args, outcome, _):
            counts["oracle.steps_decided"] += _verdict_steps(outcome)

        def ran(args, outcome, _):
            counts["oracle.run.steps"] += outcome.steps

        def advanced(args, _, before):
            counts["oracle.advance.steps"] += args[0].steps - before

        def fuelled(args, result, _):
            counts["recfun.evaluate_costed.fuel"] += result[1]

        def trio_ran(args, _, __):
            counts["trio.rounds"] += args[0].rounds_run
            counts["trio.t1_spent"] += args[0].t1_spent

        self.wrap_classmethod(machine.InstantaneousDescription, "from_tape", "machine.from_tape")
        self.wrap(experiments, "run_with_oracle", "oracle.run_with_oracle", after=decided)
        self.wrap(experiments, "run", "oracle.run", after=ran)
        self.wrap(oracle.OracleRun, "advance", "oracle.advance",
                  before=lambda args: args[0].steps, after=advanced)
        self.wrap(experiments, "replay_verify", "oracle.replay_verify")
        self.wrap(trio, "replay_verify", "oracle.replay_verify")
        self.wrap(experiments, "classify_all", "experiments.classify_all")
        self.wrap_generator(experiments, "enumerate_class", "experiments.enumerate_class")
        self.wrap(experiments, "machine_code", "experiments.machine_code")
        self.wrap(experiments, "report_to_csv", "experiments.report_to_csv")
        self.wrap(experiments, "cell_growth_profile", "experiments.cell_growth_profile")
        self.wrap(experiments, "falsify_demo", "experiments.falsify_demo")
        self.wrap(experiments, "run_fixture_suite", "experiments.run_fixture_suite")
        self.wrap(experiments, "load_fixture", "experiments.load_fixture")
        self.wrap(experiments, "load_program", "dsl.load_program")
        self.wrap(experiments, "classify_corpus_entry", "trio.classify_corpus_entry")
        self.wrap(trio.TrioRun, "run", "trio.run", after=trio_ran)
        self.wrap(trio, "evaluate_costed", "recfun.evaluate_costed", after=fuelled)
        self.wrap(proofs, "evaluate", "recfun.evaluate")
        self.wrap(trio, "oracle_evaluate", "recfun.oracle_evaluate")
        self.wrap(trio, "check_certificate", "proofs.check_certificate")
        self.wrap_generator(trio, "enumerate_certificates", "proofs.enumerate_certificates")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def per_layer(self, names: list[str]) -> dict[str, float]:
        """The named per-layer metrics; ratios over nothing read 0.

        A name ending in ``.calls`` counts the spans of that name and one
        ending in ``.s`` sums their durations; the others are derived
        below.
        """
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        audit = 0.0
        for index, (name, parent, start, end) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]
            in_entry = parent >= 0 and self.spans[parent][0] == "trio.classify_corpus_entry"
            if in_entry and name != "trio.run":
                audit += end - start

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        c = self.counts
        fuel = c["recfun.evaluate_costed.fuel"]
        out = {
            "oracle.steps_decided": c["oracle.steps_decided"],
            "oracle.us_per_step": ratio(total["oracle.run_with_oracle"] * 1e6,
                                        c["oracle.steps_decided"]),
            "oracle.peak_bytes_per_step": c["oracle.peak_bytes_per_step"],
            "oracle.run.steps": c["oracle.run.steps"],
            "oracle.advance.us_per_step": ratio(total["oracle.advance"] * 1e6,
                                                c["oracle.advance.steps"]),
            "experiments.classify_all.self_s": self_time["experiments.classify_all"],
            "experiments.report_bytes": c["experiments.report_bytes"],
            "recfun.evaluate_costed.fuel": fuel,
            "recfun.evaluate_costed.fuel_per_s": ratio(fuel, total["recfun.evaluate_costed"]),
            "trio.rounds": c["trio.rounds"],
            "trio.t1_spent": c["trio.t1_spent"],
            "trio.t1_useful_ratio": ratio(c["trio.t1_spent"], fuel),
            "trio.run.self_s": self_time["trio.run"],
            "trio.audit_s": audit,
        }
        for metric in names:
            if metric not in out:
                span, _, kind = metric.rpartition(".")
                out[metric] = calls[span] if kind == "calls" else total[span]
        return {metric: out[metric] for metric in names}
