"""Spans around the public functions of every ``mtdcsim`` module.

The tracer is installed from outside the package: it replaces each public
module-level function of every ``mtdcsim`` submodule (and every other
binding of the same function object inside the package, such as the names
``cli`` imports from ``analysis``) with a wrapper that records a span.
``numpy.linalg.eigvals``, ``numpy.linalg.solve`` and ``scipy.linalg.expm``
are wrapped as the ``linalg`` layer and only counted when called from
inside a package span. Nothing in ``src/`` changes.

A layer's self time is a span's duration minus the time covered by its
child spans. Hooks that a metric needs but that no longer exist in the
package are listed in ``missing`` instead of raising, so the traced run
survives API removal.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "mtdcsim"

# Hooks the named per-layer metrics are computed from.
REQUIRED_HOOKS = (
    "config.load_config",
    "assembly.assemble_resistive",
    "assembly.reduce_model",
    "analysis.stability_report",
    "analysis.equilibrium",
    "analysis.hurwitz",
    "analysis.gain_limit_sweep",
    "sim.discretize",
    "sim.integrate",
    "cli.main",
    "linalg.eigvals",
    "linalg.solve",
    "linalg.expm",
)

LINALG_HOOKS = (
    ("numpy.linalg", "eigvals", "linalg.eigvals"),
    ("numpy.linalg", "solve", "linalg.solve"),
    ("scipy.linalg", "expm", "linalg.expm"),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Install with ``install()``, run one op, read ``spans``, ``uninstall()``.

    ``OBSERVERS`` maps a hook name to ``fn(counters, args, kwargs, result)``,
    called after each successful call of that hook to derive counts such as
    step numbers or model dimensions.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict = {}
        self.missing: list[str] = []
        self.observer_errors: set[str] = set()
        self._stack: list[Span] = []
        self._patches: list = []

    def reset(self) -> None:
        self.spans = []
        self.counters = {}
        self._stack = []

    def _wrap(self, name: str, fn, linalg: bool):
        tracer = self
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if linalg and not stack:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None, perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.duration
                tracer.spans.append(span)
            if observe is not None:
                try:
                    observe(tracer.counters, args, kwargs, result)
                except Exception as exc:  # a changed return type must not fail the op
                    tracer.observer_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        root = importlib.import_module(PACKAGE)
        modules = [root] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                            for info in pkgutil.iter_modules(root.__path__)]
        wrappers = {}  # id(original) -> (original, wrapper)
        hooked = set()
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj, linalg=False))
                hooked.add(name)
        for owner_name, attr, name in LINALG_HOOKS:
            owner = importlib.import_module(owner_name)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn, linalg=True)
            wrappers[id(fn)] = (fn, wrapper)
            self._patch(owner, attr, wrapper)
            hooked.add(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        self._hook_kernels()
        self.missing = [name for name in REQUIRED_HOOKS if name not in hooked]

    def _hook_kernels(self) -> None:
        """Count which stepping kernel ran; no span, so its time stays in integrate."""
        try:
            kernels = importlib.import_module(f"{PACKAGE}._kernels").KERNELS
        except (ImportError, AttributeError):
            return
        if not isinstance(kernels, dict):
            return
        tracer = self

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                tracer.counters["kernel"] = key
                return fn(*args, **kwargs)
            return wrapper

        for key, fn in list(kernels.items()):
            self._patches.append((kernels, key, fn))
            kernels[key] = counting(key, fn)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []


# Matrix-vector flops per step of each stepping kernel of mtdcsim._kernels,
# for state dimension n and c converters. A kernel that cannot be identified
# is counted as one state matrix-vector product per step.
FLOPS_PER_STEP = {
    "exact_linear": lambda n, c: 2 * n * n,
    "etd2_nonlinear": lambda n, c: 8 * n * n + 4 * c * n,
}


def _observe_assemble(counters, args, kwargs, model):
    key = "dim_reduced" if model.reduced else "dim_full"
    counters[key] = max(counters.get(key, 0), model.dim)


def _observe_integrate(counters, args, kwargs, traj):
    model = args[0] if args else kwargs["model"]
    scenario = args[1] if len(args) > 1 else kwargs["scenario"]
    n, c = model.dim, len(model.net.cap)
    steps = int(round(scenario.t_end / scenario.dt))
    per_step = FLOPS_PER_STEP.get(counters.pop("kernel", None), FLOPS_PER_STEP["exact_linear"])
    counters["steps"] = counters.get("steps", 0) + steps
    counters["records"] = counters.get("records", 0) + len(traj.times)
    counters["flops"] = counters.get("flops", 0) + steps * per_step(n, c)
    counters["phi_bytes"] = max(counters.get("phi_bytes", 0), 8 * n * n)


# Per-layer metrics computed from arguments and sizes rather than measured.
COMPUTED = ("sim.steps", "sim.records", "sim.flops", "sim.gflops", "sim.phi_bytes")

OBSERVERS = {
    "assembly.assemble_resistive": _observe_assemble,
    "sim.integrate": _observe_integrate,
}


def op_layer_metrics(spans, counters, bytes_written: int) -> dict:
    """Per-layer metrics of one traced op (calls and dims are exact; see COMPUTED)."""
    calls = Counter()
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.self_time
        total_s[span.name] += span.duration

    def layer(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    integrate_s = self_s["sim.integrate"]
    cli_self = layer("cli")
    flops = counters.get("flops", 0)
    return {
        "config.load_config.calls": calls["config.load_config"],
        "config.load_config.s": self_s["config.load_config"],
        "assembly.assemble_resistive.calls": calls["assembly.assemble_resistive"],
        "assembly.reduce_model.calls": calls["assembly.reduce_model"],
        "assembly.s": layer("assembly"),
        "assembly.dim_full": counters.get("dim_full", 0),
        "assembly.dim_reduced": counters.get("dim_reduced", 0),
        "analysis.stability_report.s": self_s["analysis.stability_report"],
        "analysis.equilibrium.calls": calls["analysis.equilibrium"],
        "analysis.equilibrium.s": self_s["analysis.equilibrium"],
        "analysis.hurwitz.calls": calls["analysis.hurwitz"],
        "analysis.gain_limit_sweep.s": self_s["analysis.gain_limit_sweep"],
        "linalg.eigvals.calls": calls["linalg.eigvals"],
        "linalg.eigvals.s": self_s["linalg.eigvals"],
        "linalg.solve.calls": calls["linalg.solve"],
        "sim.discretize.calls": calls["sim.discretize"],
        "sim.discretize.s": self_s["sim.discretize"],
        "linalg.expm.calls": calls["linalg.expm"],
        "linalg.expm.s": self_s["linalg.expm"],
        "sim.integrate.calls": calls["sim.integrate"],
        "sim.integrate.s": integrate_s,
        "sim.steps": counters.get("steps", 0),
        "sim.records": counters.get("records", 0),
        "sim.flops": flops,
        "sim.gflops": flops / integrate_s / 1e9 if integrate_s > 0 else 0.0,
        "sim.phi_bytes": counters.get("phi_bytes", 0),
        "cli.main.s": total_s["cli.main"],
        "cli.self_s": cli_self,
        "cli.bytes_written": bytes_written,
        "cli.emit_MBps": bytes_written / cli_self / 1e6 if cli_self > 0 else 0.0,
    }
