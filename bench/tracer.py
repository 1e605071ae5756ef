"""Outside-in call tracing for the benchmark.

A `Tracer` replaces functions of the qtsp package with timing wrappers at
every place the package binds them (``from .sampler import run_chains``
in ``qtsp.vmc`` included), so the calls that ``train`` and ``run_chains``
look up at call time go through the wrappers. Nothing under ``src/``
changes: the program measured is the shipped one.

Spans are aggregated in memory per traced name, not stored one by one
(``propose_swap`` alone runs ~1,500 times per VMC step). Each name
accumulates calls, total time and self time, the latter being total time
minus the time spent in traced callees, so the self times of all names
add up to the time of the outermost traced calls.

A target that does not exist (a function a later refactor removed or
renamed) is reported as absent instead of failing.
"""

from __future__ import annotations

import sys
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    peaks: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)


Hook = Callable[[Stat, tuple, dict, object], None]


@dataclass(frozen=True)
class Span:
    """One traced name.

    target: ``"module.function"``, or ``"module.*.method"`` for that method
    on every class defined in the module.
    layer: the qtsp module the time belongs to.
    phase: the step layer of ROADMAP (propose, evaluate, accept, estimate,
    update), or setup / other.
    """

    name: str
    target: str
    layer: str
    phase: str
    after: Hook | None = None
    traces_sink: bool = False  # also time the `sink` callable passed in


def _log_psi_batch(stat: Stat, args: tuple, kwargs: dict, result) -> None:
    configs = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    stat.add("configs", configs.shape[0] if getattr(configs, "ndim", 1) == 2 else 1)


def _sample_counts(stat: Stat, args: tuple, kwargs: dict, sample) -> None:
    stat.add("proposed", sample.n_proposed)
    stat.add("accepted", sample.n_accepted)
    stat.add("recorded", sample.configs.shape[0])


def _o_matrix_bytes(stat: Stat, args: tuple, kwargs: dict, o_matrix) -> None:
    # computed, not measured: S x 2P complex128 entries
    stat.peak("o_matrix_bytes", o_matrix.shape[0] * o_matrix.shape[1] * 16)


# Where the time of one VMC step goes. `instance` and `encoding` are not
# traced; their cost shows up inside local_energies and the adapters
# (tours_to_sigma).
SPANS = (
    Span("cli.cli", "qtsp.cli.cli", "cli", "other"),
    Span("harness.run_experiment", "qtsp.harness.run_experiment", "harness", "other",
         traces_sink=True),
    Span("harness.sweep", "qtsp.harness.sweep", "harness", "other"),
    Span("harness.midpoint_vmc_config", "qtsp.harness.midpoint_vmc_config", "harness", "other"),
    Span("vmc.train", "qtsp.vmc.train", "vmc", "other"),
    Span("vmc.build_ansatz", "qtsp.vmc.build_ansatz", "vmc", "setup"),
    Span("sampler.init_chains", "qtsp.sampler.init_chains", "sampler", "setup"),
    Span("sampler.run_chains", "qtsp.sampler.run_chains", "sampler", "accept",
         after=_sample_counts),
    Span("sampler.propose_swap", "qtsp.sampler.propose_swap", "sampler", "propose"),
    Span("vmc.log_psi_tours", "qtsp.vmc.*.log_psi_tours", "vmc", "evaluate"),
    Span("nqs.cnn_log_psi", "qtsp.nqs.cnn_log_psi", "nqs", "evaluate", after=_log_psi_batch),
    Span("nqs.rbm_log_psi", "qtsp.nqs.rbm_log_psi", "nqs", "evaluate", after=_log_psi_batch),
    Span("vmc.local_energies", "qtsp.vmc.local_energies", "vmc", "estimate"),
    Span("vmc.log_derivatives", "qtsp.vmc.*.log_derivatives", "vmc", "estimate"),
    Span("nqs.cnn_log_derivatives", "qtsp.nqs.cnn_log_derivatives", "nqs", "estimate",
         after=_o_matrix_bytes),
    Span("nqs.rbm_log_derivatives", "qtsp.nqs.rbm_log_derivatives", "nqs", "estimate",
         after=_o_matrix_bytes),
    Span("vmc.estimate_gradient", "qtsp.vmc.estimate_gradient", "vmc", "estimate"),
    Span("vmc.adam_update", "qtsp.vmc.adam_update", "vmc", "update"),
    Span("vmc.get_flat", "qtsp.vmc.*.get_flat", "vmc", "update"),
    Span("vmc.set_flat", "qtsp.vmc.*.set_flat", "vmc", "update"),
)
# the JSONL sink that `qtsp solve --out` hands to run_experiment
SINK_SPAN = Span("cli.jsonl", "", "cli", "other")

LAYERS = ("sampler", "nqs", "vmc", "harness", "cli")
PHASES = ("propose", "evaluate", "accept", "estimate", "update", "setup", "other")


def _resolve(target: str) -> list[tuple[object, str]]:
    """(owner, attribute) pairs to patch for a target, or [] if absent."""
    parts = target.split(".")
    if parts[-2] == "*":
        module = sys.modules.get(".".join(parts[:-2]))
        if module is None:
            return []
        method = parts[-1]
        return [
            (cls, method) for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and callable(cls.__dict__.get(method))
        ]
    module = sys.modules.get(".".join(parts[:-1]))
    fn = getattr(module, parts[-1], None)
    if not callable(fn):
        return []
    # every qtsp module that binds the same object, e.g. `qtsp.vmc.run_chains`
    return [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "qtsp" or mod_name.startswith("qtsp.")
        for name, value in list(vars(mod).items())
        if value is fn
    ]


class Patch:
    """Replace a target everywhere it is bound; undo in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def apply(self, target: str, make_wrapper: Callable[[Callable], Callable]) -> bool:
        sites = _resolve(target)
        wrappers: dict[int, Callable] = {}
        for owner, attr in sites:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = make_wrapper(original)
            wrapper = wrappers[id(original)]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return bool(sites)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


class Tracer(Patch):
    """Times every span in `spans`; `stats` maps span name to its Stat."""

    def __init__(self, spans=SPANS):
        super().__init__()
        self.spans = {s.name: s for s in (*spans, SINK_SPAN)}
        self.stats = {name: Stat() for name in self.spans}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def __enter__(self) -> "Tracer":
        """Install the wrappers; stats accumulate across installs."""
        self.absent = [
            span.name for span in self.spans.values() if span is not SINK_SPAN
            and not self.apply(span.target, lambda fn, span=span: self.wrap(fn, span))
        ]
        return self

    def wrap(self, fn: Callable, span: Span) -> Callable:
        stat = self.stats[span.name]
        stack = self._stack
        after = span.after
        wrap_sink = self.wrap_sink if span.traces_sink else None

        def wrapper(*args, **kwargs):
            if wrap_sink is not None:
                wrap_sink(kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
            if after is not None:
                after(stat, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_sink(self, kwargs: dict) -> None:
        sink = kwargs.get("sink")
        if sink is not None:
            kwargs["sink"] = self.wrap(sink, SINK_SPAN)

    def total_s(self) -> float:
        """Time of the outermost traced calls: the sum of all self times."""
        return sum(s.self_s for s in self.stats.values())

    def by(self, key: str) -> dict[str, float]:
        """Self seconds summed per layer (key="layer") or phase (key="phase")."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            group = getattr(self.spans[name], key)
            out[group] = out.get(group, 0.0) + stat.self_s
        return out


class GradMemory(Patch):
    """tracemalloc peak over log-derivatives plus gradient, per VMC step.

    Tracing every allocation slows the Python sampler loop, so tracemalloc
    runs only inside that window and only in the run this object patches.
    """

    def __init__(self):
        super().__init__()
        self.peak_bytes = 0
        self.windows = 0
        self.present = False

    def __enter__(self) -> "GradMemory":
        found = False
        for target in ("qtsp.vmc.*.log_derivatives", "qtsp.nqs.cnn_log_derivatives",
                       "qtsp.nqs.rbm_log_derivatives"):
            found |= self.apply(target, self._opening)
        self.present = found and self.apply("qtsp.vmc.estimate_gradient", self._closing)
        return self

    def _opening(self, fn):
        def wrapper(*args, **kwargs):
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            return fn(*args, **kwargs)
        return wrapper

    def _closing(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if tracemalloc.is_tracing():
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    self.windows += 1
                    tracemalloc.stop()
        return wrapper

    def undo(self) -> None:
        super().undo()
        if tracemalloc.is_tracing():  # a window a raising call left open
            tracemalloc.stop()
