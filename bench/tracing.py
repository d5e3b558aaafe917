"""In-memory spans around calls into the library's public functions.

A traced run rebinds module attributes of the freshly imported library so
that each call listed in ``TRACED`` opens a span.  Cross-layer calls (for
example ``localize`` calling ``ho_eq``) are caught by rebinding the name in the
calling module.  Nothing in ``src/`` is changed; an untraced run installs no
wrapper at all.

A span is ``(name, start_ns, end_ns, parent, op, note)``: ``parent`` is the
index of the enclosing span or -1, ``op`` is the id of the benchmark op (or
``"setup"``) and ``note`` holds what an annotator read from the call.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

RULES = (
    "syntactic",
    "lemma-expand",
    "post-split",
    "pre-split",
    "w1-exchange",
    "decompose",
    "icell-identity",
    "icell-merge",
    "cylinder-cancel",
    "cylinder-identity",
)


def _note_ho_eq(args, kwargs, verdict) -> dict:
    probes = args[2] if len(args) > 2 else kwargs.get("probes")
    consulted = 0
    if verdict.verdict == "distinct":
        consulted = probes.names().index(verdict.probe) + 1
    elif verdict.verdict == "unknown" and probes is not None:
        consulted = len(probes.probes)
    return {
        "verdict": verdict.verdict,
        "rules": [s.rule for s in verdict.trace],
        "consulted": consulted,
    }


def _note_enumerate(args, kwargs, probe_set) -> dict:
    return {"probes": len(probe_set.probes)}


def _note_parse(args, kwargs, pres) -> dict:
    text = args[0] if args else kwargs["text"]
    return {"lines": text.count("\n")}


def _note_report(args, kwargs, report) -> dict:
    return {"violations": len(report.violations)}


def _note_sigma_report(args, kwargs, report) -> dict:
    lens = [len(r["decomposition"]["chain"]) for r in report["arrows"] if r["decomposition"]]
    return {"decomposition_len": statistics.fmean(lens) if lens else 0.0}


def _note_extend(args, kwargs, ext) -> dict:
    return {"pairs": ext.report.checked_pairs}


# (module, attribute, span name, annotator)
TRACED = (
    ("presentation", "load_presentation_with_sigma", "presentation.parse", _note_parse),
    ("core", "validate_bicategory", "core.validate_bicategory", _note_report),
    ("ho", "validate_pseudofunctor", "core.validate_pseudofunctor", None),
    ("sigma", "sigma_report", "sigma.report", _note_sigma_report),
    ("localize", "check_three_for_two", "sigma.check_three_for_two", None),
    ("localize", "w_split_decompose", "sigma.w_split_decompose", None),
    ("ho", "enumerate_probes", "ho.enumerate_probes", _note_enumerate),
    ("ho", "make_probe_set", "ho.make_probe_set", None),
    ("ho", "ho_eq", "ho.ho_eq", _note_ho_eq),
    ("localize", "ho_eq", "ho.ho_eq", _note_ho_eq),
    ("localize", "f_hat_chain", "ho.f_hat_chain", None),
    ("ho", "extend_2functor", "ho.extend_2functor", _note_extend),
    ("localize", "localize", "localize.localize", None),
    ("localize", "replay_certificate", "localize.replay", None),
)

LAYERS = ("presentation", "core", "sigma", "ho", "localize")

CLI_COMMANDS = (
    "validate",
    "sigma-check",
    "localize",
    "localize-replay",
    "ho-eq",
    "hat",
    "extend",
    "elevator",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: object = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, note: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = note
        self._stack.pop()

    def _wrap(self, fn, name: str, annotate):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                note = annotate(args, kwargs, result) if annotate and result is not None else None
                tracer.end(idx, note)

        return traced

    def install(self, lib) -> None:
        """Rebind every attribute in TRACED on the imported library."""
        for mod_name, attr, name, annotate in TRACED:
            mod = getattr(lib, mod_name)
            original = getattr(mod, attr)
            self._undo.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, annotate))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "note"],
                       "spans": self.spans}, fh)


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _median_ms(durations: list[int]) -> float:
    return statistics.median(durations) / 1e6 if durations else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """The per-layer metrics of a traced run, from its spans.

    Times named ``*_ms`` are medians per call and counts are means per call,
    so neither depends on how many ops a run completed.  ``<layer>.self_ms``
    is a layer's self time per op, setup excluded.  Op spans are named "op"
    and carry the op's kind and what the op itself measured in their note."""
    by_name: dict[str, list] = defaultdict(list)
    for s in spans:
        by_name[s[0]].append(s)

    def dur(name: str) -> list[int]:
        return [s[2] - s[1] for s in by_name[name]]

    def notes(name: str, key: str) -> list:
        return [s[5][key] for s in by_name[name] if s[5] is not None and key in s[5]]

    def mean(xs: list) -> float:
        return statistics.fmean(xs) if xs else 0.0

    def per_s(count: float, ns: int) -> float:
        return count / (ns / 1e9) if ns else 0.0

    m: dict[str, float] = {}
    m["presentation.parse_ms"] = _median_ms(dur("presentation.parse"))
    m["presentation.lines_per_s"] = per_s(
        sum(notes("presentation.parse", "lines")), sum(dur("presentation.parse"))
    )

    m["core.validate_bicategory_ms"] = _median_ms(dur("core.validate_bicategory"))
    # witnesses are counted by the generator and noted on validate-tables ops
    witnessed = [s for s in by_name["op"] if "witnesses" in s[5]]
    m["core.witnesses"] = mean([s[5]["witnesses"] for s in witnessed])
    ids = {id(s) for s in witnessed}
    validate_ns = sum(
        s[2] - s[1]
        for s in by_name["core.validate_bicategory"]
        if s[3] >= 0 and id(spans[s[3]]) in ids
    )
    m["core.witnesses_per_s"] = per_s(sum(s[5]["witnesses"] for s in witnessed), validate_ns)
    m["core.violations"] = mean(notes("core.validate_bicategory", "violations"))
    m["core.validate_pseudofunctor_ms"] = _median_ms(dur("core.validate_pseudofunctor"))

    m["sigma.report_ms"] = _median_ms(dur("sigma.report"))
    m["sigma.decomposition_len"] = mean(notes("sigma.report", "decomposition_len"))

    m["ho.enumerate_probes_ms"] = _median_ms(dur("ho.enumerate_probes"))
    m["ho.probes"] = mean(notes("ho.enumerate_probes", "probes"))
    m["ho.probes_per_s"] = per_s(
        sum(notes("ho.enumerate_probes", "probes")), sum(dur("ho.enumerate_probes"))
    )
    m["ho.make_probe_set_ms"] = _median_ms(dur("ho.make_probe_set"))

    eqs = [s for s in by_name["ho.ho_eq"] if s[5] is not None]
    for verdict in ("equal", "distinct", "unknown"):
        m[f"ho.ho_eq_{verdict}_ms"] = _median_ms(
            [s[2] - s[1] for s in eqs if s[5]["verdict"] == verdict]
        )
    m["ho.trace_steps"] = mean([len(s[5]["rules"]) for s in eqs])
    fired = Counter(r for s in eqs for r in s[5]["rules"])
    for rule in RULES:
        m[f"ho.rule.{rule}"] = fired[rule] / len(eqs) if eqs else 0.0
    consulted = sum(s[5]["consulted"] for s in eqs)
    m["ho.probes_consulted"] = consulted / len(eqs) if eqs else 0.0
    separations = sum(1 for s in eqs if s[5]["verdict"] == "distinct")
    m["ho.separations_per_probe_eval"] = separations / consulted if consulted else 0.0
    m["ho.extend_ms"] = _median_ms(dur("ho.extend_2functor"))
    m["ho.extend_pairs"] = mean(notes("ho.extend_2functor", "pairs"))

    m["localize.localize_ms"] = _median_ms(dur("localize.localize"))
    m["localize.replay_ms"] = _median_ms(dur("localize.replay"))
    m["localize.cert_bytes"] = mean(notes("op", "cert_bytes"))

    m["cli.interpreter_ms"] = _median_ms(dur("cli.interpreter"))
    m["cli.import_ms"] = statistics.median(notes("cli.import", "import_ms")) if by_name["cli.import"] else 0.0
    for command in CLI_COMMANDS:
        m[f"cli.{command}_ms"] = _median_ms(
            [s[2] - s[1] for s in by_name["op"] if "exit" in s[5] and s[5]["kind"] == command]
        )

    own = self_times(spans)
    ops = len(by_name["op"])
    per_layer: Counter = Counter()
    for s, t in zip(spans, own):
        if s[4] != "setup":
            per_layer[s[0].split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = per_layer[layer] / 1e6 / ops if ops else 0.0
    return m
